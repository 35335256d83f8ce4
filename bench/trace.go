package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (spans inside the program under test are a later
// issue). Times are raw host nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Op     int    `json:"op"`     // spans of one segment, request or sweep point share it
}

// recorder times every measured call and, in the traced run, keeps a
// span for it in memory until the run ends. All measured calls are made
// from the one load-generating goroutine, so the open calls form a
// stack and the top of it is the parent of the next span.
type recorder struct {
	clock
	// tracing is set for the traced run; on can then be switched off
	// for the ops whose untraced latency trace.overhead_ratio needs.
	tracing, on bool
	t0          time.Time
	spans       []span
	open        []int
	depth       int
}

func newRecorder(tracing bool) *recorder {
	r := &recorder{tracing: tracing, on: tracing, t0: time.Now()}
	r.calibrate()
	return r
}

// enable switches span recording on or off within a traced run.
func (r *recorder) enable(on bool) { r.on = on && r.tracing }

// do runs fn, inside a span when recording, and returns how long fn
// took at reference host speed. Only an outermost call recalibrates,
// after fn: a calibration inside an enclosing call would be charged to
// that call.
func (r *recorder) do(name string, op int, fn func()) time.Duration {
	id := -1
	if r.on {
		parent := -1
		if n := len(r.open); n > 0 {
			parent = r.open[n-1]
		}
		id = len(r.spans)
		r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op})
		r.open = append(r.open, id)
	}
	r.depth++
	t := time.Now()
	fn()
	end := time.Now()
	r.depth--
	if id >= 0 {
		r.open = r.open[:len(r.open)-1]
		r.spans[id].Start = int64(t.Sub(r.t0))
		r.spans[id].End = int64(end.Sub(r.t0))
	}
	if r.depth > 0 {
		return r.scaleStale(end.Sub(t))
	}
	return r.scale(end.Sub(t))
}

// overheadRatio is traced over untraced median latency of the same op,
// given latencies of which the even-numbered were recorded as spans and
// the odd-numbered were not.
func overheadRatio(lat []time.Duration) float64 {
	var traced, plain []float64
	for i, d := range lat {
		if i%2 == 0 {
			traced = append(traced, us(d))
		} else {
			plain = append(plain, us(d))
		}
	}
	return median(traced) / median(plain)
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// write dumps the spans as JSONL.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
