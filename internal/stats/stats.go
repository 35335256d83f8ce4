// Package stats provides the statistic primitives behind the paper's
// "statistics reports and analysis": histograms (the image of received
// traffic the stochastic receptors build), running counters, and the
// series the experiment figures are plotted from.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-bin-width histogram over uint64 samples, the
// software twin of the hardware histogram RAM in a stochastic receptor.
type Histogram struct {
	binWidth uint64
	bins     []uint64
	overflow uint64
	count    uint64
	sum      uint64
	min, max uint64
}

// NewHistogram creates a histogram with numBins bins of the given width;
// samples >= numBins*binWidth land in the overflow counter.
func NewHistogram(binWidth uint64, numBins int) (*Histogram, error) {
	if binWidth == 0 {
		return nil, fmt.Errorf("stats: zero bin width")
	}
	if numBins < 1 {
		return nil, fmt.Errorf("stats: %d bins", numBins)
	}
	return &Histogram{
		binWidth: binWidth,
		bins:     make([]uint64, numBins),
		min:      math.MaxUint64,
	}, nil
}

// MustNewHistogram is NewHistogram for static configurations.
func MustNewHistogram(binWidth uint64, numBins int) *Histogram {
	h, err := NewHistogram(binWidth, numBins)
	if err != nil {
		panic(err)
	}
	return h
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	i := v / h.binWidth
	if i >= uint64(len(h.bins)) {
		h.overflow++
		return
	}
	h.bins[i]++
}

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Overflow returns the number of samples beyond the last bin.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// NumBins returns the number of regular bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() uint64 { return h.binWidth }

// Bin returns the count in bin i (matching the receptor's indexed
// histogram-readout register).
func (h *Histogram) Bin(i int) uint64 {
	if i < 0 || i >= len(h.bins) {
		return 0
	}
	return h.bins[i]
}

// Quantile returns an upper bound for the q-quantile (0<=q<=1) computed
// from bin boundaries; overflow samples report the overflow boundary.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var acc uint64
	for i, b := range h.bins {
		acc += b
		if acc >= target {
			return uint64(i+1) * h.binWidth
		}
	}
	return uint64(len(h.bins)) * h.binWidth
}

// Reset clears all bins and counters.
func (h *Histogram) Reset() {
	for i := range h.bins {
		h.bins[i] = 0
	}
	h.overflow, h.count, h.sum, h.max = 0, 0, 0, 0
	h.min = math.MaxUint64
}

// RenderBins draws histogram bins as ASCII art, width columns wide, as
// the paper's monitor displays them on the host PC from the bins it
// reads over the register bus.
func RenderBins(binWidth uint64, bins []uint64, overflow uint64, width int) string {
	if width < 1 {
		width = 40
	}
	var peak uint64
	for _, b := range bins {
		if b > peak {
			peak = b
		}
	}
	if overflow > peak {
		peak = overflow
	}
	var sb strings.Builder
	for i, b := range bins {
		bar := 0
		if peak > 0 {
			bar = int(float64(b) / float64(peak) * float64(width))
		}
		fmt.Fprintf(&sb, "[%6d,%6d) %8d |%s\n",
			uint64(i)*binWidth, uint64(i+1)*binWidth, b, strings.Repeat("#", bar))
	}
	if overflow > 0 {
		bar := int(float64(overflow) / float64(peak) * float64(width))
		fmt.Fprintf(&sb, "[%6d,   inf) %8d |%s\n",
			uint64(len(bins))*binWidth, overflow, strings.Repeat("#", bar))
	}
	return sb.String()
}

// Welford accumulates a running mean and variance without storing
// samples (the latency analyzer uses one per flow).
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one sample.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (0 for n < 2).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest sample (0 when empty).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max returns the largest sample (0 when empty).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}

// Reset clears the accumulator.
func (w *Welford) Reset() { *w = Welford{} }

// Point is one (x, y) sample of an experiment series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points — one curve of a paper figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Sorted returns a copy of the series with points ordered by X.
func (s *Series) Sorted() Series {
	out := Series{Name: s.Name, Points: append([]Point(nil), s.Points...)}
	sort.Slice(out.Points, func(i, j int) bool { return out.Points[i].X < out.Points[j].X })
	return out
}

// YAt returns the Y value for the given X, or ok=false if absent.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}
