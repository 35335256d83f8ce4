// Package rng provides the deterministic random sources of the
// emulation platform.
//
// The paper's traffic generators contain "a bench of registers ... for
// random initialization": on the FPGA each stochastic TG embeds linear
// feedback shift registers seeded over the bus. The emulator reproduces
// that design: every random decision is drawn from a Galois LFSR whose
// seed is a device register, so an emulation run is exactly reproducible
// from its register file — and two backends given the same seeds produce
// bit-identical traffic.
package rng

import "fmt"

// taps32 is the feedback polynomial of the 32-bit Galois LFSR
// (x^32 + x^22 + x^2 + x + 1, a maximal-length polynomial).
const taps32 uint32 = 0x80200003

// LFSR is a 32-bit maximal-length Galois linear feedback shift register.
// The zero value is invalid (an LFSR locks up at state 0); use New.
type LFSR struct {
	state uint32
}

// New returns an LFSR seeded with seed; a zero seed is remapped to 1,
// mirroring the hardware's seed-register guard.
func New(seed uint32) *LFSR {
	if seed == 0 {
		seed = 1
	}
	return &LFSR{state: seed}
}

// Reseed resets the register to the given seed (zero remapped to 1).
func (l *LFSR) Reseed(seed uint32) {
	if seed == 0 {
		seed = 1
	}
	l.state = seed
}

// State returns the current register contents.
func (l *LFSR) State() uint32 { return l.state }

// Next advances the register one step and returns the new state.
func (l *LFSR) Next() uint32 {
	lsb := l.state & 1
	l.state >>= 1
	if lsb != 0 {
		l.state ^= taps32
	}
	return l.state
}

// Uint32 returns a 32-bit value assembled from two LFSR steps, improving
// bit mixing over the raw register (the low bits of consecutive Galois
// states are strongly correlated).
func (l *LFSR) Uint32() uint32 {
	hi := l.Next()
	lo := l.Next()
	return hi<<16 | lo&0xFFFF
}

// Uint64 returns a 64-bit value from four LFSR steps.
func (l *LFSR) Uint64() uint64 {
	return uint64(l.Uint32())<<32 | uint64(l.Uint32())
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (l *LFSR) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn(%d)", n))
	}
	if uint64(n) > 1<<32-1 { // wider than one draw: a full 32-bit gap range
		max := ^uint64(0) - ^uint64(0)%uint64(n)
		for {
			if v := l.Uint64(); v < max {
				return int(v % uint64(n))
			}
		}
	}
	// Rejection sampling to avoid modulo bias.
	max := ^uint32(0) - ^uint32(0)%uint32(n)
	for {
		v := l.Uint32()
		if v < max {
			return int(v % uint32(n))
		}
	}
}

// IntRange returns a uniform value in [lo, hi] inclusive. It panics if
// hi < lo.
func (l *LFSR) IntRange(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("rng: IntRange(%d,%d)", lo, hi))
	}
	return lo + l.Intn(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1) with 32 bits of resolution.
func (l *LFSR) Float64() float64 {
	return float64(l.Uint32()) / (1 << 32)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (l *LFSR) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return l.Float64() < p
}

// Geometric returns the number of failures before the first success of
// a Bernoulli(p) process, i.e. a geometrically distributed value with
// mean (1-p)/p. This is the discrete-time analogue of an exponential
// inter-arrival and drives the Poisson traffic model. p must be in
// (0, 1]; it panics otherwise.
func (l *LFSR) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("rng: Geometric(%g)", p))
	}
	n := 0
	for !l.Bernoulli(p) {
		n++
		if n >= 1<<20 {
			// Statistically unreachable for sane p; guards against a
			// pathological p from a corrupted register.
			return n
		}
	}
	return n
}

// Bernoulli16 returns true with probability p/65536, the fixed-point
// probability format of the device registers (see internal/regmap).
func (l *LFSR) Bernoulli16(p uint16) bool {
	return uint16(l.Uint32()) < p
}
