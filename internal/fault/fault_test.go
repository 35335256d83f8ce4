package fault

import (
	"testing"

	"nocemu/internal/link"
)

func mkLinks(n int) []*link.Link {
	out := make([]*link.Link, n)
	for i := range out {
		out[i], _ = link.NewArena("l", 1, 0).NewPair("l", "")
	}
	return out
}

func TestNewControllerValidation(t *testing.T) {
	links := mkLinks(2)
	good := []Spec{{Link: 0, Mode: link.FaultStuck, From: 1, Until: 5}}
	if _, err := NewController("", links, good); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewController("f", links, nil); err == nil {
		t.Error("empty campaign accepted")
	}
	bad := [][]Spec{
		{{Link: 2, Mode: link.FaultStuck, From: 0, Until: 1}},
		{{Link: -1, Mode: link.FaultStuck, From: 0, Until: 1}},
		{{Link: 0, Mode: link.FaultNone, From: 0, Until: 1}},
		{{Link: 0, Mode: link.FaultStuck, From: 3, Until: 3}},
	}
	for i, specs := range bad {
		if _, err := NewController("f", links, specs); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	c, err := NewController("f", links, good)
	if err != nil {
		t.Fatal(err)
	}
	if c.ComponentName() != "f" {
		t.Errorf("name = %q", c.ComponentName())
	}
}

func TestControllerWindows(t *testing.T) {
	links := mkLinks(2)
	c, err := NewController("f", links, []Spec{
		{Link: 0, Mode: link.FaultStuck, From: 2, Until: 4},
		{Link: 1, Mode: link.FaultCorrupt, From: 3, Until: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ a, b link.FaultMode }
	want := map[uint64]pair{
		0: {link.FaultNone, link.FaultNone},
		2: {link.FaultStuck, link.FaultNone},
		3: {link.FaultStuck, link.FaultCorrupt},
		4: {link.FaultNone, link.FaultCorrupt},
		6: {link.FaultNone, link.FaultNone},
	}
	for cycle := uint64(0); cycle < 8; cycle++ {
		c.Tick(cycle)
		if w, ok := want[cycle]; ok {
			if links[0].Fault() != w.a || links[1].Fault() != w.b {
				t.Errorf("cycle %d: modes = %d,%d want %d,%d",
					cycle, links[0].Fault(), links[1].Fault(), w.a, w.b)
			}
		}
	}
	if c.AppliedCycles() == 0 {
		t.Error("no applied cycles recorded")
	}
}

func TestStuckDominatesCorrupt(t *testing.T) {
	links := mkLinks(1)
	c, err := NewController("f", links, []Spec{
		{Link: 0, Mode: link.FaultStuck, From: 0, Until: 10},
		{Link: 0, Mode: link.FaultCorrupt, From: 0, Until: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Tick(5)
	if links[0].Fault() != link.FaultStuck {
		t.Errorf("mode = %d, want stuck", links[0].Fault())
	}
	// Reversed spec order: still stuck.
	links2 := mkLinks(1)
	c2, err := NewController("f", links2, []Spec{
		{Link: 0, Mode: link.FaultCorrupt, From: 0, Until: 10},
		{Link: 0, Mode: link.FaultStuck, From: 0, Until: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	c2.Tick(5)
	if links2[0].Fault() != link.FaultStuck {
		t.Errorf("mode = %d, want stuck (order independence)", links2[0].Fault())
	}
}
