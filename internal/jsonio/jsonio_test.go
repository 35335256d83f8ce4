package jsonio

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocemu/internal/platform"
	"nocemu/internal/trace"
)

func TestExampleLoadsAndRuns(t *testing.T) {
	data, err := json.Marshal(Example())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(strings.NewReader(string(data)), ".")
	if err != nil {
		t.Fatal(err)
	}
	p, err := platform.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, stopped := p.Run(1_000_000); !stopped {
		t.Fatal("example config did not finish")
	}
	if p.Totals().PacketsReceived != 1000 {
		t.Errorf("received = %d", p.Totals().PacketsReceived)
	}
}

// TestLoadRejects: each misuse of the file format fails the load, by
// name. Rows edit the example file, which is then marshaled and loaded
// the way a user's file would be.
func TestLoadRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(f *File)
		want string
	}{
		{"unknown model", func(f *File) { f.TGs[0].Model = "warp" }, `unknown model "warp"`},
		{"model without its object", func(f *File) { f.TGs[0].Params = nil }, `without its "uniform" object`},
		{"unknown field in the model object", func(f *File) { f.TGs[0].Params = json.RawMessage(`{"len_min":4,"len_max":4,"warp":9}`) }, `unknown field "warp"`},
		{"trace without trace_file", func(f *File) { f.TGs[0].Model, f.TGs[0].Params = "trace", nil }, "without trace_file"},
		{"unknown TR mode", func(f *File) { f.TRs[0].Mode = "psychic" }, `unknown mode "psychic"`},
	} {
		f := Example()
		c.edit(f)
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(data), "."); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	for _, src := range []string{
		`{"bogus_field": 1}`,
		`{"tgs": [{"endpoint": 0, "model": "uniform", "bogus_field": 1}]}`,
		`{"tgs": [{"endpoint": 0, "model": "uniform", "uniform": {}, "burst": {}}]}`, // only the named model's object
		`not json`,
	} {
		if _, err := Load(strings.NewReader(src), "."); err == nil {
			t.Errorf("%s accepted", src)
		}
	}
}

func TestTopologyKinds(t *testing.T) {
	cases := []TopologySpec{
		{Kind: "line", N: 3},
		{Kind: "ring", N: 4},
		{Kind: "mesh", W: 2, H: 2},
		{Kind: "torus", W: 3, H: 3},
		{Kind: "star", Leaves: 3},
		{Kind: "tree", Depth: 2, Fanout: 2},
		{Kind: "full", N: 4},
		{Kind: "paper-six"},
		{Kind: "custom", NumSwitches: 2, Links: [][2]int{{0, 1}, {1, 0}}},
	}
	for _, spec := range cases {
		if _, err := buildTopology(spec); err != nil {
			t.Errorf("%s: %v", spec.Kind, err)
		}
	}
	if _, err := buildTopology(TopologySpec{Kind: "dodecahedron"}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := buildTopology(TopologySpec{Kind: "custom", NumSwitches: 2, Links: [][2]int{{0, 9}}}); err == nil {
		t.Error("bad custom link accepted")
	}
}

func TestTraceFileLoading(t *testing.T) {
	dir := t.TempDir()
	tr, err := trace.SynthCBR(trace.CBRConfig{Name: "t", Dst: 100, NumPackets: 5, Len: 2, Period: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Text trace.
	txt := filepath.Join(dir, "t.trace")
	ftxt, err := os.Create(txt)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(ftxt, tr); err != nil {
		t.Fatal(err)
	}
	ftxt.Close()
	// Binary trace.
	bin := filepath.Join(dir, "t.ntrc")
	fbin, err := os.Create(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(fbin, tr); err != nil {
		t.Fatal(err)
	}
	fbin.Close()

	for _, name := range []string{"t.trace", "t.ntrc"} {
		f := Example()
		f.TGs[0].Model = "trace"
		f.TGs[0].Params = nil
		f.TGs[0].TraceFile = name
		f.TGs[0].Limit = 0
		f.TRs[0].ExpectPackets = 5
		cfg, err := f.ToConfig(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := platform.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, stopped := p.Run(10_000); !stopped {
			t.Fatalf("%s: did not finish", name)
		}
		if p.Totals().PacketsReceived != 5 {
			t.Errorf("%s: received = %d", name, p.Totals().PacketsReceived)
		}
	}
	// Missing file.
	f := Example()
	f.TGs[0].Model = "trace"
	f.TGs[0].Params = nil
	f.TGs[0].TraceFile = "missing.trace"
	if _, err := f.ToConfig(dir); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	data, err := json.MarshalIndent(Example(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "example-ring" {
		t.Errorf("name = %q", cfg.Name)
	}
	if _, err := LoadFile(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestOverridesAndPolicies(t *testing.T) {
	f := Example()
	f.Select = "packet-modulo"
	f.Arb = "lrg"
	f.Routing = "shortest"
	cfg, err := f.ToConfig(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := platform.Build(cfg); err != nil {
		t.Errorf("policies rejected: %v", err)
	}
}

func TestRunControlKeys(t *testing.T) {
	dir := t.TempDir()
	f := Example()
	f.CheckpointEvery = 250
	f.Restore = "warm.nocsnap"
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cfg.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, run, err := LoadFileRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "example-ring" {
		t.Errorf("name = %q", cfg.Name)
	}
	if run.CheckpointEvery != 250 {
		t.Errorf("checkpoint_every = %d", run.CheckpointEvery)
	}
	// Relative restore paths anchor at the config file, like trace_file.
	if want := filepath.Join(dir, "warm.nocsnap"); run.Restore != want {
		t.Errorf("restore = %q, want %q", run.Restore, want)
	}

	// LoadFile ignores run control but still accepts the keys.
	if _, err := LoadFile(path); err != nil {
		t.Errorf("LoadFile rejected run-control keys: %v", err)
	}
}
