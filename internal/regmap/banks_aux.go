// Register banks for the devices the original control plane left
// unmapped: the platform's links and the flit pool's accounting. With
// these every observable number in the framework is reachable over the
// internal buses, so the monitor never has to touch simulation structs
// directly.
package regmap

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/link"
)

// Link register offsets.
const (
	RegLinkFault    = 0x006 // rw: 0 none, 1 stuck, 2 corrupt
	RegLinkSel      = 0x008 // rw: link index, topology order
	RegLinkCount    = 0x009 // ro: number of inter-switch links
	RegLinkFlits    = 0x010 // ro 64-bit: flits transported
	RegLinkBusy     = 0x012 // ro 64-bit: cycles the wire carried a flit
	RegLinkCycles   = 0x014 // ro 64-bit: committed cycles
	RegLinkOverruns = 0x016 // ro 64-bit: flits lost to double occupancy
	RegLinkCorrupt  = 0x018 // ro 64-bit: flits corrupted by fault
	RegLinkHeld     = 0x01A // ro 64-bit: cycles a stuck fault held a flit
)

// NewLinkDevice builds the one register device of a platform's
// inter-switch links: LINK_SEL picks a link by topology index, and the
// link register file behind it — drop/overrun and utilization counters,
// fault injection — serves that link. Links are the one device class
// that grows with the link count rather than the node count, so they
// share one address instead of taking one each.
func NewLinkDevice(links []*link.Link) *Bank {
	return Lazy("links", func(b *Bank) {
		b.Describe("Link (TYPE = 5)",
			"One device for every inter-switch link: write LINK_SEL, then read or write "+
				"the selected link's registers; each is a bus error at or past LINK_COUNT. "+
				"Utilization is BUSY/CYCLES. OVERRUNS stays zero under correct credit flow "+
				"control; writing FAULT injects the paper's functional-validation faults "+
				"without touching the platform.")
		b.RO(RegType, "TYPE", "device class", func() uint32 { return TypeLink })
		b.RO(RegSubtype, "SUBTYPE", "always 0", func() uint32 { return 0 })
		b.RO(RegLinkCount, "LINK_COUNT", "number of inter-switch links",
			func() uint32 { return uint32(len(links)) })
		sel := Select(b, RegLinkSel, "LINK_SEL", "link index, topology order",
			func(i int) (*link.Link, bool) { return index(links, i) })
		b.RWErr(RegCtrl, "CTRL", "bit1 reset-stats of the selected link",
			Of(sel, func(*link.Link) uint32 { return 0 }),
			func(v uint32) error {
				l, err := sel()
				if err == nil && v&CtrlResetStats != 0 {
					l.ResetStats()
				}
				return err
			})
		b.RWErr(RegLinkFault, "FAULT", "fault mode: 0 none, 1 stuck, 2 corrupt",
			Of(sel, func(l *link.Link) uint32 { return uint32(l.Fault()) }),
			func(v uint32) error {
				l, err := sel()
				if err != nil {
					return err
				}
				if v > uint32(link.FaultCorrupt) {
					return fmt.Errorf("regmap: %s fault mode %d", b.DeviceName(), v)
				}
				l.SetFault(link.FaultMode(v))
				return nil
			})
		b.RO64Err(RegLinkFlits, "FLITS", "flits transported", Of(sel, (*link.Link).Flits))
		b.RO64Err(RegLinkBusy, "BUSY", "cycles the wire carried a flit", Of(sel, (*link.Link).BusyCycles))
		b.RO64Err(RegLinkCycles, "CYCLES", "committed cycles observed", Of(sel, (*link.Link).TotalCycles))
		b.RO64Err(RegLinkOverruns, "OVERRUNS", "flits lost to double occupancy", Of(sel, (*link.Link).Overruns))
		b.RO64Err(RegLinkCorrupt, "CORRUPTED", "flits whose payload a fault flipped", Of(sel, (*link.Link).Corrupted))
		b.RO64Err(RegLinkHeld, "HELD", "cycles a staged flit was held by a stuck fault", Of(sel, (*link.Link).HeldCycles))
	})
}

// Pool register offsets.
const (
	RegPoolShards    = 0x008 // ro: number of per-endpoint shards
	RegPoolAcquired  = 0x010 // ro 64-bit: Acquire calls served
	RegPoolReleased  = 0x012 // ro 64-bit: flits returned (orphans included)
	RegPoolAllocated = 0x014 // ro 64-bit: flits ever created (peak population)
	RegPoolLive      = 0x016 // ro 64-bit: acquired - released (two's complement)
	RegShardSel      = 0x030 // rw: shard index, creation order
	RegShardOwner    = 0x031 // ro: selected shard's owning endpoint
	RegShardAcquired = 0x032 // ro 64-bit: selected shard's Acquire calls
	RegShardReleased = 0x034 // ro 64-bit: selected shard's returned flits
	RegShardAlloc    = 0x036 // ro 64-bit: selected shard's allocations
)

// NewPoolDevice builds the register bank of the flit pool's accounting:
// the leak ledger (LIVE must read zero after a drained run) and the
// per-shard breakdown behind SHARD_SEL.
func NewPoolDevice(p *flit.Pool) *Bank {
	return Lazy("pool", func(b *Bank) {
		b.Describe("Flit pool (TYPE = 6)",
			"LIVE is acquired minus released as a two's-complement 64-bit value: zero "+
				"after a fully drained run, positive on a leak. Read while quiesced, like "+
				"any statistic.")
		b.RO(RegType, "TYPE", "device class", func() uint32 { return TypePool })
		b.RO(RegSubtype, "SUBTYPE", "always 0", func() uint32 { return 0 })
		b.RO(RegPoolShards, "SHARDS", "number of per-endpoint shards",
			func() uint32 { return uint32(len(p.Shards())) })
		b.RO64(RegPoolAcquired, "ACQUIRED", "Acquire calls served across all shards", p.Acquired)
		b.RO64(RegPoolReleased, "RELEASED", "flits returned across all shards (orphans included)", p.Released)
		b.RO64(RegPoolAllocated, "ALLOCATED", "flits ever created (peak live population)", p.Allocated)
		b.RO64(RegPoolLive, "LIVE", "acquired minus released (two's complement)",
			func() uint64 { return uint64(p.Live()) })
		shard := Select(b, RegShardSel, "SHARD_SEL", "shard index, creation order",
			func(i int) (*flit.Shard, bool) { return index(p.Shards(), i) })
		b.ROErr(RegShardOwner, "SHARD_OWNER", "selected shard's owning endpoint",
			Of(shard, func(s *flit.Shard) uint32 { return uint32(s.Owner()) }))
		b.RO64Err(RegShardAcquired, "SHARD_ACQ", "selected shard's Acquire calls", Of(shard, (*flit.Shard).Acquired))
		b.RO64Err(RegShardReleased, "SHARD_REL", "selected shard's returned flits", Of(shard, (*flit.Shard).Released))
		b.RO64Err(RegShardAlloc, "SHARD_ALLOC", "selected shard's allocations", Of(shard, (*flit.Shard).Allocated))
	})
}
