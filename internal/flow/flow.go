// Package flow drives the paper's six-step emulation flow:
//
//  1. platform compilation — platform.Build from a Config;
//  2. physical synthesis — resource.Estimate against the target FPGA;
//  3. platform initialization — the program's register writes;
//  4. software compilation — control.Compile of the program;
//  5. emulation — control.Processor execution of the run directives;
//  6. final report — statistics pulled for the monitor.
//
// The split is the paper's point: iterating on steps 3-6 (new traffic,
// new statistics, new run lengths) never repeats steps 1-2.
package flow

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nocemu/internal/control"
	"nocemu/internal/platform"
	"nocemu/internal/resource"
)

// Options tunes a flow run.
type Options struct {
	// target is the FPGA model used in the synthesis step (default
	// resource.VirtexIIPro); only tests pick another.
	target resource.TargetDevice
	// MaxCycles caps the default run when the program has no run
	// directive (default 10M).
	MaxCycles uint64
	// SkipSynthesis omits step 2 (useful in tight benchmark loops).
	SkipSynthesis bool
	// Restore warm-starts the platform from a .nocsnap snapshot file
	// (DESIGN.md §13), loaded between software compilation and
	// emulation. The snapshot must match the built platform's name and
	// shape; the kernel configuration may differ.
	Restore string
	// CheckpointEvery > 0 chunks the emulation into K-cycle slices and
	// snapshots the platform after each into CheckpointDir as
	// checkpoint-<cycle>.nocsnap. Checkpointing drives the run itself,
	// so it requires the default program (no custom instruction
	// stream). Snapshots are taken between cycles and do not perturb
	// the emulation.
	CheckpointEvery uint64
	// CheckpointDir receives periodic checkpoints (default ".").
	CheckpointDir string
}

func (o *Options) applyDefaults() {
	if o.target.Slices == 0 {
		o.target = resource.VirtexIIPro
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 10_000_000
	}
}

// RunReport is the outcome of a full flow execution.
type RunReport struct {
	// Platform is the compiled platform (step 1), still queryable and
	// runnable.
	Platform *platform.Platform
	// Synthesis is the step-2 estimate (nil when skipped).
	Synthesis *resource.Report
	// Exec carries the program's register reads and run counts.
	Exec *control.Result
	// Totals is the step-6 aggregate snapshot.
	Totals platform.Totals
	// Wall is the host wall-clock time of step 5.
	Wall time.Duration
	// CyclesPerSecond is the emulation speed achieved in step 5.
	CyclesPerSecond float64
}

// DefaultProgram returns the minimal emulation software: run until the
// platform's stop conditions fire, bounded by maxCycles.
func DefaultProgram(maxCycles uint64) control.Program {
	return control.Program{
		Name: "default",
		Instrs: []control.Instr{
			{Op: control.OpRunUntilDone, Cycles: maxCycles},
		},
	}
}

// Run executes the six-step flow.
func Run(cfg platform.Config, prog control.Program, opt Options) (*RunReport, error) {
	opt.applyDefaults()

	// Step 1: platform compilation.
	p, err := platform.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("flow: platform compilation: %w", err)
	}

	// Step 2: physical synthesis.
	var syn *resource.Report
	if !opt.SkipSynthesis {
		syn, err = resource.Estimate(p, opt.target)
		if err != nil {
			return nil, fmt.Errorf("flow: synthesis: %w", err)
		}
		if !syn.Fits() {
			return nil, fmt.Errorf("flow: platform needs %d slices, target %s has %d",
				syn.TotalSlices, syn.Target.Name, syn.Target.Slices)
		}
	}

	// Steps 3+4: the program carries the initialization writes;
	// compiling it validates them against the built platform.
	custom := len(prog.Instrs) != 0
	if !custom {
		prog = DefaultProgram(opt.MaxCycles)
	}
	compiled, err := control.Compile(prog, p.System())
	if err != nil {
		return nil, fmt.Errorf("flow: software compilation: %w", err)
	}

	// Warm start: load the snapshot after initialization is validated,
	// immediately before the emulation step, so the restored state is
	// what actually runs.
	if opt.Restore != "" {
		if err := restoreFrom(p, opt.Restore); err != nil {
			return nil, fmt.Errorf("flow: restore: %w", err)
		}
	}

	// Step 5: emulation.
	start := time.Now()
	var res *control.Result
	if opt.CheckpointEvery > 0 {
		if custom {
			return nil, fmt.Errorf("flow: checkpointing drives the run itself and requires the default program")
		}
		res, err = runCheckpointed(p, prog.Name, opt)
	} else {
		res, err = p.Processor().Execute(compiled)
	}
	if err != nil {
		return nil, fmt.Errorf("flow: emulation: %w", err)
	}
	wall := time.Since(start)

	// Step 6: final report.
	rep := &RunReport{
		Platform:  p,
		Synthesis: syn,
		Exec:      res,
		Totals:    p.Totals(),
		Wall:      wall,
	}
	if wall > 0 && res.CyclesRun > 0 {
		rep.CyclesPerSecond = float64(res.CyclesRun) / wall.Seconds()
	}
	return rep, nil
}

// restoreFrom loads a snapshot file into the built platform.
func restoreFrom(p *platform.Platform, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.Restore(f)
}

// runCheckpointed is the emulation step under periodic checkpointing:
// the default run (run-until-done, capped at MaxCycles) sliced into
// CheckpointEvery-cycle chunks with a snapshot written after each —
// including the final one, so the last checkpoint always holds the end
// state. Snapshots happen between cycles; the emulation result is
// bit-identical to an unchunked run.
func runCheckpointed(p *platform.Platform, name string, opt Options) (*control.Result, error) {
	dir := opt.CheckpointDir
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res := &control.Result{Program: name}
	remaining := opt.MaxCycles
	for remaining > 0 {
		chunk := opt.CheckpointEvery
		if chunk > remaining {
			chunk = remaining
		}
		n, stopped := p.Run(chunk)
		res.CyclesRun += n
		res.Stopped = stopped
		remaining -= n
		path := filepath.Join(dir, fmt.Sprintf("checkpoint-%d.nocsnap", p.Engine().Cycle()))
		f, err := os.Create(path)
		if err != nil {
			return res, err
		}
		err = p.Snapshot(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return res, fmt.Errorf("checkpoint %s: %w", path, err)
		}
		// A stop condition or an abort (n < chunk without stop) ends the
		// run exactly as RunUntil would.
		if stopped || n < chunk {
			break
		}
	}
	return res, nil
}
