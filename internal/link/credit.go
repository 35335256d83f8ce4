package link

// CreditLink is the reverse wire of a flit link: the downstream input
// buffer returns one credit per freed slot, with one cycle of latency,
// and the upstream sender accumulates them into its credit counter.
//
// Credits staged during Tick become visible at the next Commit. Credits
// that the sender does not collect are never lost: they accumulate on
// the wire until taken.
type CreditLink struct {
	name string
	cur  uint32
	next uint32
	// The latest commit that added credits added lastN, in cycle lastAt:
	// what TakeBefore leaves behind. Not state: LoadState clears it.
	lastN  uint32
	elem   int32 // the wire pair's index in its Arena; what onSend is told
	lastAt uint64

	sent uint64

	// onSend fires on every Send — the gated scheduler's arm hook, so a
	// parked wire commits the staged credits. The consumer is not woken:
	// uncollected credits accumulate on the wire, and a consumer parked
	// meanwhile collects them through TakeBefore as if it had run.
	onSend func(elem int)
	// arrived is the consuming switch's flag for this wire, set by the
	// Commit that makes credits visible; nil when the consumer polls.
	arrived *uint8
}

// NewCreditLink returns an empty credit wire.
func NewCreditLink(name string) *CreditLink {
	return &CreditLink{name: name}
}

// ComponentName implements engine.Component.
func (c *CreditLink) ComponentName() string { return c.name }

// Tick implements engine.Component; credit wires are passive in Tick.
func (c *CreditLink) Tick(cycle uint64) {}

// Send stages n credits for delivery next cycle.
func (c *CreditLink) Send(n uint32) {
	c.next += n
	c.sent += uint64(n)
	if c.onSend != nil {
		c.onSend(int(c.elem))
	}
}

// NotifyArrival makes every Commit that puts credits on the wire set
// *flag. The consuming switch owns the byte; the wire only ever sets it.
func (c *CreditLink) NotifyArrival(flag *uint8) { c.arrived = flag }

// Idle reports whether no credits are staged; committed-but-untaken
// credits keep accumulating without commits, so they do not block
// quiescence.
func (c *CreditLink) Idle() bool { return c.next == 0 }

// Take collects all visible credits, zeroing the wire.
func (c *CreditLink) Take() uint32 {
	n := c.cur
	c.cur = 0
	return n
}

// TakeBefore collects the credits committed before the given cycle and
// leaves those its own commit added: what a consumer ticking every
// cycle has taken once it has ticked in that cycle, and so what a
// parked one's SkipIdle takes. cycle must not precede the latest commit.
func (c *CreditLink) TakeBefore(cycle uint64) uint32 {
	var keep uint32
	if c.lastAt == cycle {
		keep = min(c.lastN, c.cur) // less after a Take in between
	}
	n := c.cur - keep
	c.cur = keep
	return n
}

// Pending returns the credits currently visible without taking them.
func (c *CreditLink) Pending() uint32 { return c.cur }

// Commit implements engine.Component: staged credits become visible,
// accumulating with any uncollected ones.
func (c *CreditLink) Commit(cycle uint64) {
	if c.next == 0 {
		return
	}
	c.cur += c.next
	c.lastN, c.lastAt = c.next, cycle
	c.next = 0
	if c.arrived != nil {
		*c.arrived = 1
	}
}

// TotalSent returns the total credits ever staged, for conservation
// checks in tests.
func (c *CreditLink) TotalSent() uint64 { return c.sent }
