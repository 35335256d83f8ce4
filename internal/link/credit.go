package link

// CreditLink is the reverse wire of a flit link: the downstream input
// buffer returns one credit per freed slot, with one cycle of latency,
// and the upstream sender accumulates them into its credit counter.
// Like a flit link it is two cycle-parity slots: credits sent in cycle
// c land in slot (c+1)&1 and a Take in cycle c collects slot c&1.
// Uncollected credits are never lost: they accumulate in their slot,
// the consumer is not woken, and TakeBefore collects both slots.
type CreditLink struct {
	// n[p] is the credits waiting in slot p; of them, last were sent in
	// the cycle before at — what TakeBefore leaves behind.
	n       [2]uint32
	last    uint32
	elem    int32 // the wire's index among its arena's credit wires
	at      uint64
	sent    uint64
	arrived [2]*uint8 // as Link's
	arena   *Arena
}

// NewCreditLink returns an empty credit wire, in an arena of its own
// (no clock: its snapshot is read at cycle 0).
func NewCreditLink(name string) *CreditLink {
	a := NewArena(name, 0, 1)
	a.credits = append(make([]CreditLink, 0, 1), CreditLink{arena: a})
	a.cnames = []string{name}
	return &a.credits[0]
}

// ComponentName returns the credit wire's instance name.
func (c *CreditLink) ComponentName() string { return c.arena.cnames[c.elem] }

// Send returns n credits in the given cycle; they are visible in the
// next.
func (c *CreditLink) Send(cycle uint64, n uint32) {
	p := (cycle + 1) & 1
	if c.at != cycle+1 {
		c.at, c.last = cycle+1, 0
	}
	c.n[p] += n
	c.last += n
	c.sent += uint64(n)
	if a := c.arrived[p]; a != nil {
		*a = 1
	}
}

// NotifyArrival makes every Send into slot p raise *flags[p]. The
// consuming switch owns the bytes; the wire only ever sets them.
func (c *CreditLink) NotifyArrival(flags [2]*uint8) { c.arrived = flags }

// Take collects the credits visible in the given cycle. A consumer that
// takes every cycle, or catches up with TakeBefore, leaves nothing in
// the slot the sender writes.
func (c *CreditLink) Take(cycle uint64) uint32 {
	p := cycle & 1
	n := c.n[p]
	c.n[p] = 0
	return n
}

// TakeBefore collects the credits visible in the given cycle or before
// and leaves those sent in it: what a consumer ticking every cycle has
// taken once it has ticked in that cycle, and so what a parked one's
// SkipIdle takes. Call it between cycles, never from a Tick.
func (c *CreditLink) TakeBefore(cycle uint64) uint32 {
	var keep [2]uint32
	if c.at == cycle+1 {
		p := c.at & 1
		keep[p] = min(c.last, c.n[p]) // less after a Take in between
	}
	n := c.n[0] + c.n[1] - keep[0] - keep[1]
	c.n = keep
	return n
}

// Pending returns the credits on the wire, visible or not yet, without
// taking them.
func (c *CreditLink) Pending() uint32 { return c.n[0] + c.n[1] }

// TotalSent returns the total credits ever sent, for conservation
// checks in tests.
func (c *CreditLink) TotalSent() uint64 { return c.sent }
