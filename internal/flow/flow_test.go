package flow

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nocemu/internal/control"
	"nocemu/internal/platform"
	"nocemu/internal/regmap"
	"nocemu/internal/resource"
)

func paperCfg(t *testing.T) platform.Config {
	t.Helper()
	cfg, err := platform.PaperConfig(platform.PaperOptions{
		Traffic: platform.PaperUniform, PacketsPerTG: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRunDefaultProgram(t *testing.T) {
	rep, err := Run(paperCfg(t), control.Program{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Synthesis == nil || !rep.Synthesis.Fits() {
		t.Error("synthesis missing or does not fit")
	}
	if !rep.Exec.Stopped {
		t.Error("default program did not stop on completion")
	}
	if rep.Totals.PacketsReceived != 160 {
		t.Errorf("received = %d", rep.Totals.PacketsReceived)
	}
	if rep.CyclesPerSecond <= 0 {
		t.Error("no speed measured")
	}
	if rep.Wall <= 0 {
		t.Error("no wall time")
	}
}

func TestRunCustomProgramWithInit(t *testing.T) {
	// Program writes traffic parameters (step 3) before running:
	// packet length 9 -> 3 on every TG.
	prog := control.Program{Name: "custom"}
	for _, dev := range []string{"tg0", "tg1", "tg2", "tg3"} {
		prog.Instrs = append(prog.Instrs,
			control.Instr{Op: control.OpWrite, Dev: dev, Reg: regmap.RegParamBase + 0, Value: 3},
			control.Instr{Op: control.OpWrite, Dev: dev, Reg: regmap.RegParamBase + 1, Value: 3},
		)
	}
	prog.Instrs = append(prog.Instrs,
		control.Instr{Op: control.OpRunUntilDone, Cycles: 1_000_000},
		control.Instr{Op: control.OpRead64, Dev: "tr100", Reg: regmap.RegTRFlits},
	)
	rep, err := Run(paperCfg(t), prog, Options{SkipSynthesis: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Synthesis != nil {
		t.Error("synthesis present despite skip")
	}
	// 40 packets x 3 flits.
	if v, ok := rep.Exec.ReadValue("tr100", regmap.RegTRFlits); !ok || v != 120 {
		t.Errorf("tr100 flits = %d, %v", v, ok)
	}
}

func TestRunRejectsBadProgram(t *testing.T) {
	prog := control.Program{Name: "bad", Instrs: []control.Instr{
		{Op: control.OpWrite, Dev: "no-such-device", Reg: 0, Value: 1},
	}}
	if _, err := Run(paperCfg(t), prog, Options{}); err == nil {
		t.Error("unknown device compiled")
	}
}

func TestRunRejectsOversizedPlatform(t *testing.T) {
	_, err := Run(paperCfg(t), control.Program{}, Options{
		target: resource.TargetDevice{Name: "tiny", Slices: 100},
	})
	if err == nil {
		t.Error("oversized platform passed synthesis")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(platform.Config{Name: "broken"}, control.Program{}, Options{}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestDefaultProgramShape(t *testing.T) {
	p := DefaultProgram(123)
	if len(p.Instrs) != 1 || p.Instrs[0].Op != control.OpRunUntilDone || p.Instrs[0].Cycles != 123 {
		t.Errorf("program = %+v", p)
	}
}

// TestRunCheckpointAndRestore exercises the checkpoint/restore run
// control end to end: a checkpointed run leaves checkpoint-<cycle>
// snapshots behind and finishes with the same statistics as an
// unchunked run, and a second flow invocation warm-started from a
// mid-run checkpoint reproduces the uninterrupted end state.
func TestRunCheckpointAndRestore(t *testing.T) {
	ref, err := Run(paperCfg(t), control.Program{}, Options{SkipSynthesis: true})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rep, err := Run(paperCfg(t), control.Program{}, Options{
		SkipSynthesis:   true,
		CheckpointEvery: 500,
		CheckpointDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exec.Stopped {
		t.Fatal("checkpointed run did not stop")
	}
	if rep.Totals != ref.Totals || rep.Exec.CyclesRun != ref.Exec.CyclesRun {
		t.Errorf("checkpointed run diverged: %+v vs %+v", rep.Totals, ref.Totals)
	}
	end := rep.Platform.Engine().Cycle()
	final := filepath.Join(dir, fmt.Sprintf("checkpoint-%d.nocsnap", end))
	if _, err := os.Stat(final); err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}
	mid := filepath.Join(dir, "checkpoint-500.nocsnap")
	if _, err := os.Stat(mid); err != nil {
		t.Fatalf("mid-run checkpoint missing: %v", err)
	}

	warm, err := Run(paperCfg(t), control.Program{}, Options{
		SkipSynthesis: true,
		Restore:       mid,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Totals != ref.Totals {
		t.Errorf("restored run diverged: %+v vs %+v", warm.Totals, ref.Totals)
	}
	if got := warm.Platform.Engine().Cycle(); got != end {
		t.Errorf("restored run ended at cycle %d, want %d", got, end)
	}
	if warm.Exec.CyclesRun != ref.Exec.CyclesRun-500 {
		t.Errorf("restored run executed %d cycles, want %d", warm.Exec.CyclesRun, ref.Exec.CyclesRun-500)
	}

	// Checkpointing composes only with the default program.
	prog := control.Program{Name: "p", Instrs: []control.Instr{{Op: control.OpRun, Cycles: 10}}}
	if _, err := Run(paperCfg(t), prog, Options{SkipSynthesis: true, CheckpointEvery: 10}); err == nil {
		t.Error("checkpointing with a custom program accepted")
	}

	// A missing snapshot fails the flow loudly.
	if _, err := Run(paperCfg(t), control.Program{}, Options{
		SkipSynthesis: true, Restore: filepath.Join(dir, "nope.nocsnap"),
	}); err == nil {
		t.Error("missing restore file accepted")
	}
}
