package engine

import (
	"errors"
	"testing"
)

// phaseRecorder checks the kernel's one pass: every component ticks
// once per cycle, in registration order, and Commit is never called.
type phaseRecorder struct {
	name   string
	events *[]string
	doneAt uint64
	ticks  uint64
}

func (p *phaseRecorder) ComponentName() string { return p.name }
func (p *phaseRecorder) Tick(c uint64) {
	p.ticks++
	*p.events = append(*p.events, p.name+":tick")
}
func (p *phaseRecorder) Commit(c uint64) {
	*p.events = append(*p.events, p.name+":commit")
}
func (p *phaseRecorder) Done() bool { return p.ticks >= p.doneAt }

func TestRegisterRejectsNilAndEmptyAndDuplicate(t *testing.T) {
	e := New()
	if err := e.Register(nil); err == nil {
		t.Error("nil component accepted")
	}
	var ev []string
	if err := e.Register(&phaseRecorder{name: "", events: &ev}); err == nil {
		t.Error("empty name accepted")
	}
	if err := e.Register(&phaseRecorder{name: "a", events: &ev, doneAt: 1}); err != nil {
		t.Fatal(err)
	}
	err := e.Register(&phaseRecorder{name: "a", events: &ev, doneAt: 1})
	if !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate registration: err = %v", err)
	}
}

func TestStepPhaseOrdering(t *testing.T) {
	e := New()
	var ev []string
	e.MustRegister(&phaseRecorder{name: "a", events: &ev, doneAt: 1})
	e.MustRegister(&phaseRecorder{name: "b", events: &ev, doneAt: 1})
	e.Step()
	want := []string{"a:tick", "b:tick"}
	if len(ev) != len(want) {
		t.Fatalf("events = %v", ev)
	}
	for i := range want {
		if ev[i] != want[i] {
			t.Fatalf("events = %v, want %v", ev, want)
		}
	}
	if e.Cycle() != 1 {
		t.Errorf("cycle = %d, want 1", e.Cycle())
	}
}

func TestRunCounts(t *testing.T) {
	e := New()
	var ev []string
	p := &phaseRecorder{name: "a", events: &ev, doneAt: 1 << 62}
	e.MustRegister(p)
	if n := e.Run(10); n != 10 {
		t.Errorf("Run returned %d", n)
	}
	if p.ticks != 10 {
		t.Errorf("ticks = %d, want 10", p.ticks)
	}
	if e.Cycle() != 10 {
		t.Errorf("cycle = %d", e.Cycle())
	}
}

func TestRunUntilStopsOnDone(t *testing.T) {
	e := New()
	var ev []string
	e.MustRegister(&phaseRecorder{name: "fast", events: &ev, doneAt: 3})
	e.MustRegister(&phaseRecorder{name: "slow", events: &ev, doneAt: 7})
	n, stopped := e.RunUntil(100)
	if !stopped {
		t.Error("did not stop on Done")
	}
	if n != 7 {
		t.Errorf("executed %d cycles, want 7", n)
	}
}

func TestRunUntilHitsCap(t *testing.T) {
	e := New()
	var ev []string
	e.MustRegister(&phaseRecorder{name: "never", events: &ev, doneAt: 1 << 62})
	n, stopped := e.RunUntil(5)
	if stopped || n != 5 {
		t.Errorf("n=%d stopped=%v, want 5,false", n, stopped)
	}
}

func TestRunUntilNoStoppersRunsToCap(t *testing.T) {
	e := New()
	n, stopped := e.RunUntil(13)
	if stopped || n != 13 {
		t.Errorf("n=%d stopped=%v", n, stopped)
	}
}

func TestLookupAndNames(t *testing.T) {
	e := New()
	var ev []string
	b := &phaseRecorder{name: "b", events: &ev, doneAt: 1}
	a := &phaseRecorder{name: "a", events: &ev, doneAt: 1}
	e.MustRegister(b)
	e.MustRegister(a)
	got, ok := e.Lookup("a")
	if !ok || got != Component(a) {
		t.Error("Lookup(a) failed")
	}
	if _, ok := e.Lookup("zzz"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	names := e.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names() = %v", names)
	}
	if e.NumComponents() != 2 {
		t.Errorf("NumComponents = %d", e.NumComponents())
	}
}

func TestResetRewindsCycleOnly(t *testing.T) {
	e := New()
	var ev []string
	p := &phaseRecorder{name: "a", events: &ev, doneAt: 1 << 62}
	e.MustRegister(p)
	e.Run(4)
	e.Reset()
	if e.Cycle() != 0 {
		t.Errorf("cycle after reset = %d", e.Cycle())
	}
	if p.ticks != 4 {
		t.Errorf("component state was touched: ticks=%d", p.ticks)
	}
}

func TestMustRegisterPanicsOnDuplicate(t *testing.T) {
	e := New()
	var ev []string
	e.MustRegister(&phaseRecorder{name: "x", events: &ev, doneAt: 1})
	defer func() {
		if recover() == nil {
			t.Error("MustRegister did not panic on duplicate")
		}
	}()
	e.MustRegister(&phaseRecorder{name: "x", events: &ev, doneAt: 1})
}

// aborter is a component that can cancel a run.
type aborter struct {
	name    string
	abortAt uint64
	ticks   uint64
}

func (a *aborter) ComponentName() string { return a.name }
func (a *aborter) Tick(c uint64)         { a.ticks++ }
func (a *aborter) Commit(c uint64)       {}
func (a *aborter) Aborted() bool         { return a.ticks >= a.abortAt }

func TestRunUntilAborts(t *testing.T) {
	e := New()
	var ev []string
	e.MustRegister(&phaseRecorder{name: "slow", events: &ev, doneAt: 1 << 62})
	e.MustRegister(&aborter{name: "dog", abortAt: 5})
	n, stopped := e.RunUntil(1000)
	if stopped {
		t.Error("aborted run reported stopped")
	}
	if n != 5 {
		t.Errorf("executed %d cycles, want 5 (abort)", n)
	}
}

func TestRunUntilAborterOnlyNoStoppers(t *testing.T) {
	e := New()
	e.MustRegister(&aborter{name: "dog", abortAt: 3})
	n, stopped := e.RunUntil(1000)
	if stopped || n != 3 {
		t.Errorf("n=%d stopped=%v, want 3,false", n, stopped)
	}
}

func TestComponentsSnapshot(t *testing.T) {
	e := New()
	var ev []string
	p := &phaseRecorder{name: "a", events: &ev, doneAt: 1}
	e.MustRegister(p)
	comps := e.Components()
	if len(comps) != 1 || comps[0] != Component(p) {
		t.Errorf("components = %v", comps)
	}
	// The returned slice is a copy.
	comps[0] = nil
	if e.Components()[0] == nil {
		t.Error("Components aliases internal slice")
	}
}
