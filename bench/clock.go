package main

import "time"

// Host-speed calibration.
//
// The sandbox this benchmark runs in changes speed by 10-40 % in phases
// that last from a second to a minute (clock steps, a neighbour on the
// sibling hyperthread); a whole 8-second run can sit inside one phase,
// so no statistic of raw timings repeats within a tenth. Every duration
// the benchmark reports is therefore scaled by a calibration taken next
// to it: a fixed kernel that depends on nothing in the repository — an
// integer recurrence plus random updates over a 4 MB table — is timed,
// and durations are multiplied by calRef over that time. The unit of
// every reported time is thus "time on the reference host running at
// its usual speed"; bench.host_speed reports the factor so raw host
// time can be recovered. Counts, sizes and the heap are not scaled.

const (
	calSpin = 2_000_000
	calWalk = 300_000
	// calRef is the kernel's duration on the reference host in its
	// most common state. It only fixes the unit.
	calRef = 4200 * time.Microsecond
	// calEvery is how stale a calibration may be: an op longer than
	// this gets its own, taken right after it; shorter ops share one.
	calEvery = 50 * time.Millisecond
)

// calTable lives in BSS, so heap_mb does not see it.
var calTable [1 << 19]uint64

// clock scales host durations to reference durations.
type clock struct {
	factor  float64
	last    time.Time
	factors []float64
	// x carries the recurrence from one calibration to the next, which
	// also keeps the compiler from dropping the kernel.
	x uint64
}

func (c *clock) calibrate() {
	x := c.x | 1
	t := time.Now()
	for i := 0; i < calSpin; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	for i := 0; i < calWalk; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		calTable[x>>45] += x
	}
	c.last = time.Now()
	c.x = x
	c.factor = float64(calRef) / float64(c.last.Sub(t))
	c.factors = append(c.factors, c.factor)
}

// scale converts a host duration that just ended. When the calibration
// at hand is stale a fresh one is taken now, right after the op; if the
// stale one was itself taken right before the op began, the op is
// scaled by the mean of the two, which halves the error when the host
// changed speed while the op ran.
func (c *clock) scale(d time.Duration) time.Duration {
	if time.Since(c.last) <= calEvery {
		return c.scaleStale(d)
	}
	before, gap := c.factor, time.Since(c.last)-d
	c.calibrate()
	if gap > calEvery {
		return c.scaleStale(d)
	}
	return time.Duration(float64(d) * (before + c.factor) / 2)
}

// scaleStale converts with the calibration at hand.
func (c *clock) scaleStale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.factor)
}
