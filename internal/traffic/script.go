// ScriptGen: externally scripted traffic, the co-simulation injection
// path (DESIGN.md §16). A host driving the emulator as a timing oracle
// (cmd/nocserve) does not know its traffic ahead of time — packets
// arrive one request at a time. ScriptGen is a generator whose demand
// queue is appended between runs: each scripted record carries the
// cycle it becomes due, and Step emits due records in FIFO order.
//
// A ScriptGen may wrap an inner generator. Scripted records take
// priority; when none is due the inner model runs normally, which lets
// a session overlay request traffic on a registered background
// workload. Appends must happen only between kernel runs (the engine
// re-evaluates every parked component at each run entry, so a newly
// scripted demand needs no arm hook to wake its TG).
package traffic

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/rng"
	"nocemu/internal/state"
)

func init() {
	RegisterWorkload(Workload{
		Kind:    "script",
		Summary: "externally scripted: sources emit only demands appended at run time (co-simulation sessions)",
		Build: func(env WorkloadEnv) ([]Config, error) {
			if err := env.check(); err != nil {
				return nil, err
			}
			return make([]Config, len(env.Sources)), nil // all nil: pure script sources
		},
	})
}

// scriptIdleSleep bounds the sleep promise of an empty pure-script
// generator. It is large enough to park the TG across any realistic
// request window but small enough that the owning TG's wake cycle
// (cycle + 1 + n) cannot overflow.
const scriptIdleSleep = uint64(1) << 40

// ScriptRec is one scripted packet demand: due at cycle At, sent to
// Dst with Len flits.
type ScriptRec struct {
	At      uint64
	Dst     flit.EndpointID
	Len     uint16
	Payload uint32
}

// ScriptGen emits an appendable FIFO of scripted demands, optionally
// overlaid on an inner generator.
type ScriptGen struct {
	inner Generator // nil for a pure script source
	queue []ScriptRec
	pos   int
}

// NewScript builds a script generator. inner may be nil (pure script).
func NewScript(inner Generator) *ScriptGen {
	return &ScriptGen{inner: inner}
}

// Append schedules one demand. Records must be appended in
// non-decreasing At order relative to the queue tail (FIFO emission
// would otherwise stall later records behind an undue earlier one).
func (s *ScriptGen) Append(rec ScriptRec) error {
	if rec.Len < 1 {
		return fmt.Errorf("traffic: scripted packet length %d", rec.Len)
	}
	if n := len(s.queue); n > s.pos && rec.At < s.queue[n-1].At {
		return fmt.Errorf("traffic: scripted record at cycle %d behind queued cycle %d",
			rec.At, s.queue[n-1].At)
	}
	s.queue = append(s.queue, rec)
	return nil
}

// Backlog reports the scripted demands not yet emitted.
func (s *ScriptGen) Backlog() int { return len(s.queue) - s.pos }

// ModelName implements Generator.
func (s *ScriptGen) ModelName() string {
	if s.inner != nil {
		return "script+" + s.inner.ModelName()
	}
	return "script"
}

// Exhausted implements Generator: a script source can always receive
// more records, so it never reports exhaustion.
func (s *ScriptGen) Exhausted() bool { return false }

// Step implements Generator: emit the front scripted record once due,
// else delegate to the inner model.
func (s *ScriptGen) Step(cycle uint64, r *rng.LFSR, d *Demand) bool {
	if s.pos < len(s.queue) {
		rec := s.queue[s.pos]
		if rec.At <= cycle {
			s.pos++
			if s.pos == len(s.queue) {
				// The whole script has been emitted; drop the backing
				// array so long sessions do not accumulate it.
				s.queue, s.pos = s.queue[:0], 0
			}
			*d = Demand{Dst: rec.Dst, Len: rec.Len, Payload: rec.Payload}
			return true
		}
	}
	if s.inner != nil && !s.inner.Exhausted() {
		return s.inner.Step(cycle, r, d)
	}
	return false
}

// Sleep implements Generator: the script side is a pure wait until the
// front record is due (or indefinitely when empty); the combined
// promise is the minimum with the inner model's.
func (s *ScriptGen) Sleep(cycle uint64) (uint64, bool) {
	script := scriptIdleSleep
	if s.pos < len(s.queue) {
		at := s.queue[s.pos].At
		if at <= cycle+1 {
			return 0, false
		}
		script = at - cycle - 1
	}
	if s.inner == nil || s.inner.Exhausted() {
		return script, script > 0
	}
	n, ok := s.inner.Sleep(cycle)
	if !ok || n == 0 {
		return 0, false
	}
	if n < script {
		return n, true
	}
	return script, true
}

// SkipSteps implements Generator: waiting consumes no script state;
// only the inner model's countdowns advance.
func (s *ScriptGen) SkipSteps(n uint64) {
	if s.inner != nil {
		s.inner.SkipSteps(n)
	}
}

// SaveState implements Generator: the whole queue (appended records
// are session state — a parked session must resume with its pending
// script intact), the emission cursor, and the inner model.
func (s *ScriptGen) SaveState(w *state.Writer) {
	w.Int(len(s.queue))
	for _, rec := range s.queue {
		w.U64(rec.At)
		w.U16(uint16(rec.Dst))
		w.U16(rec.Len)
		w.U32(rec.Payload)
	}
	w.Int(s.pos)
	w.Bool(s.inner != nil)
	if s.inner != nil {
		s.inner.SaveState(w)
	}
}

// LoadState implements Generator. The queue is rebuilt through Append,
// so a snapshot cannot hold a record Append would have refused.
func (s *ScriptGen) LoadState(r *state.Reader) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("traffic: snapshot script queue of %d records", n)
	}
	var restored ScriptGen
	for i := 0; i < n; i++ {
		rec := ScriptRec{At: r.U64(), Dst: flit.EndpointID(r.U16()), Len: r.U16(), Payload: r.U32()}
		if err := r.Err(); err != nil {
			return err
		}
		if err := restored.Append(rec); err != nil {
			return fmt.Errorf("traffic: snapshot script record %d: %w", i, err)
		}
	}
	pos := r.Int()
	hasInner := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if pos < 0 || pos > n {
		return fmt.Errorf("traffic: snapshot script cursor %d of %d records", pos, n)
	}
	if hasInner != (s.inner != nil) {
		return fmt.Errorf("traffic: snapshot script inner-model %v, built %v", hasInner, s.inner != nil)
	}
	s.queue, s.pos = restored.queue, pos
	if s.inner != nil {
		return s.inner.LoadState(r)
	}
	return nil
}
