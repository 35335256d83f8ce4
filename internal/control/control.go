// Package control implements the software side of the paper's HW/SW
// emulation split: the control module (the small hardware block the
// paper synthesizes at 218 slices) and the processor that "configures
// and rules the NoC emulation platform features" by reading and writing
// device registers over the internal buses.
//
// A Program is the emulation software: a list of register writes, reads,
// and run directives. Compile — the flow's "software compilation" step —
// resolves device names to bus addresses and rejects malformed programs
// before the emulation starts; Execute runs the program against the
// engine. Changing traffic or emulation parameters means editing the
// program only: the platform hardware is untouched, which is the paper's
// answer to the cost of hardware re-synthesis.
package control

import (
	"fmt"

	"nocemu/internal/bus"
	"nocemu/internal/regmap"
)

// Enabler is the TG surface the control module's global start/stop
// fans out to.
type Enabler interface {
	SetEnabled(bool)
	Enabled() bool
}

// Module is the control-module device: global cycle counter, global
// traffic enable, and platform inventory registers. It is a declarative
// regmap.Bank like every other device on the buses.
type Module struct {
	*regmap.Bank
}

// Module register offsets (beyond the regmap common ones).
const (
	RegCycleLo = 0x010
	RegCycleHi = 0x011
	RegNumTG   = 0x012
	RegNumTR   = 0x013
	RegNumSw   = 0x014
)

// NewModule builds the control module. cycleFn supplies the engine's
// cycle counter; tgs receive the global enable fanout.
func NewModule(name string, cycleFn func() uint64, tgs []Enabler, numTR, numSw int) (*Module, error) {
	if name == "" {
		return nil, fmt.Errorf("control: empty module name")
	}
	if cycleFn == nil {
		return nil, fmt.Errorf("control: nil cycle source")
	}
	return &Module{Bank: regmap.Lazy(name, func(b *regmap.Bank) {
		b.Describe("Control module (TYPE = 4)", "")
		b.RO(regmap.RegType, "TYPE", "device class", func() uint32 { return regmap.TypeControl })
		b.RO(regmap.RegSubtype, "SUBTYPE", "always 0", func() uint32 { return 0 })
		b.RW(regmap.RegCtrl, "CTRL", "bit0: global traffic enable, fanned out to every TG",
			func() uint32 {
				for _, tg := range tgs {
					if !tg.Enabled() {
						return 0
					}
				}
				return regmap.CtrlEnable
			},
			func(v uint32) error {
				on := v&regmap.CtrlEnable != 0
				for _, tg := range tgs {
					tg.SetEnabled(on)
				}
				return nil
			})
		b.RO64(RegCycleLo, "CYCLE", "engine cycle counter", cycleFn)
		b.RO(RegNumTG, "NUM_TG", "traffic generators on the platform",
			func() uint32 { return uint32(len(tgs)) })
		b.RO(RegNumTR, "NUM_TR", "traffic receptors",
			func() uint32 { return uint32(numTR) })
		b.RO(RegNumSw, "NUM_SW", "switches",
			func() uint32 { return uint32(numSw) })
	})}, nil
}

// OpKind enumerates program instructions.
type OpKind string

const (
	// OpWrite writes Value to (Dev, Reg).
	OpWrite OpKind = "write"
	// OpRead reads (Dev, Reg) into the result log.
	OpRead OpKind = "read"
	// OpRead64 reads the lo/hi pair at (Dev, Reg) into the result log.
	OpRead64 OpKind = "read64"
	// OpRun advances the emulation by Cycles cycles.
	OpRun OpKind = "run"
	// OpRunUntilDone runs until every stopper is done, capped at Cycles.
	OpRunUntilDone OpKind = "run-until-done"
)

// Instr is one program instruction. Dev is a device name resolved at
// compile time.
type Instr struct {
	Op     OpKind
	Dev    string
	Reg    uint32
	Value  uint32
	Cycles uint64
}

// Program is the emulation software: the "software settings — traffic
// definition, orchestration of the emulation".
type Program struct {
	Name   string
	Instrs []Instr
}

// compiledInstr is an instruction with its address resolved.
type compiledInstr struct {
	Instr
	addr bus.Addr
}

// Compiled is a validated program ready for execution.
type Compiled struct {
	name   string
	instrs []compiledInstr
}

// Runner abstracts the engine's run control (satisfied by
// *engine.Engine).
type Runner interface {
	Run(n uint64) uint64
	RunUntil(maxCycles uint64) (uint64, bool)
	Cycle() uint64
}

// Compile resolves device names against the bus system and validates
// every instruction — the flow's step 4 ("software compilation").
func Compile(p Program, sys *bus.System) (*Compiled, error) {
	if len(p.Instrs) == 0 {
		return nil, fmt.Errorf("control: program %q is empty", p.Name)
	}
	c := &Compiled{name: p.Name}
	for i, in := range p.Instrs {
		ci := compiledInstr{Instr: in}
		switch in.Op {
		case OpWrite, OpRead, OpRead64:
			if in.Reg >= bus.RegsPerDevice {
				return nil, fmt.Errorf("control: %q instr %d: register 0x%x out of range", p.Name, i, in.Reg)
			}
			base, ok := sys.Find(in.Dev)
			if !ok {
				return nil, fmt.Errorf("control: %q instr %d: unknown device %q", p.Name, i, in.Dev)
			}
			ci.addr = bus.MakeAddr(base.Bus(), base.Device(), in.Reg)
		case OpRun, OpRunUntilDone:
			if in.Cycles == 0 {
				return nil, fmt.Errorf("control: %q instr %d: zero cycle count", p.Name, i)
			}
		default:
			return nil, fmt.Errorf("control: %q instr %d: unknown op %q", p.Name, i, in.Op)
		}
		c.instrs = append(c.instrs, ci)
	}
	return c, nil
}

// ReadResult is one OpRead/OpRead64 outcome.
type ReadResult struct {
	Dev   string
	Reg   uint32
	Value uint64
}

// Result is the outcome of executing a program.
type Result struct {
	Program string
	// Reads holds register reads in program order.
	Reads []ReadResult
	// CyclesRun is the total cycles advanced by run instructions.
	CyclesRun uint64
	// Stopped reports whether a run-until-done instruction ended by
	// stop condition (rather than its cap).
	Stopped bool
}

// ReadValue returns the first read result for (dev, reg).
func (r *Result) ReadValue(dev string, reg uint32) (uint64, bool) {
	for _, rr := range r.Reads {
		if rr.Dev == dev && rr.Reg == reg {
			return rr.Value, true
		}
	}
	return 0, false
}

// Processor executes compiled programs: the paper's on-chip CPU.
type Processor struct {
	sys *bus.System
	eng Runner
}

// NewProcessor builds a processor over a bus system and an engine.
func NewProcessor(sys *bus.System, eng Runner) (*Processor, error) {
	if sys == nil || eng == nil {
		return nil, fmt.Errorf("control: processor needs a bus system and an engine")
	}
	return &Processor{sys: sys, eng: eng}, nil
}

// Execute runs the program to completion or first error.
func (p *Processor) Execute(c *Compiled) (*Result, error) {
	res := &Result{Program: c.name}
	for i, in := range c.instrs {
		switch in.Op {
		case OpWrite:
			if err := p.sys.Write(in.addr, in.Value); err != nil {
				return res, fmt.Errorf("control: %q instr %d: %w", c.name, i, err)
			}
		case OpRead:
			v, err := p.sys.Read(in.addr)
			if err != nil {
				return res, fmt.Errorf("control: %q instr %d: %w", c.name, i, err)
			}
			res.Reads = append(res.Reads, ReadResult{Dev: in.Dev, Reg: in.Reg, Value: uint64(v)})
		case OpRead64:
			v, err := p.sys.Read64(in.addr)
			if err != nil {
				return res, fmt.Errorf("control: %q instr %d: %w", c.name, i, err)
			}
			res.Reads = append(res.Reads, ReadResult{Dev: in.Dev, Reg: in.Reg, Value: v})
		case OpRun:
			res.CyclesRun += p.eng.Run(in.Cycles)
		case OpRunUntilDone:
			n, stopped := p.eng.RunUntil(in.Cycles)
			res.CyclesRun += n
			res.Stopped = stopped
		}
	}
	return res, nil
}
