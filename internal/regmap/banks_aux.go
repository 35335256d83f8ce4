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
	RegLinkFlits    = 0x010 // ro 64-bit: flits transported
	RegLinkBusy     = 0x012 // ro 64-bit: cycles the wire carried a flit
	RegLinkCycles   = 0x014 // ro 64-bit: committed cycles
	RegLinkOverruns = 0x016 // ro 64-bit: flits lost to double occupancy
	RegLinkCorrupt  = 0x018 // ro 64-bit: flits corrupted by fault
	RegLinkHeld     = 0x01A // ro 64-bit: cycles a stuck fault held a flit
)

// NewLinkDevice builds the register bank of a link: drop/overrun and
// utilization counters, plus fault injection over the bus.
func NewLinkDevice(l *link.Link) *Bank {
	return Lazy(l.ComponentName(), func(b *Bank) {
		b.Describe("Link (TYPE = 5)",
			"Utilization is BUSY/CYCLES. OVERRUNS stays zero under correct credit flow "+
				"control; writing FAULT injects the paper's functional-validation faults "+
				"without touching the platform.")
		b.RO(RegType, "TYPE", "device class", func() uint32 { return TypeLink })
		b.RO(RegSubtype, "SUBTYPE", "always 0", func() uint32 { return 0 })
		b.RW(RegCtrl, "CTRL", "bit1 reset-stats",
			func() uint32 { return 0 },
			func(v uint32) error {
				if v&CtrlResetStats != 0 {
					l.ResetStats()
				}
				return nil
			})
		b.RW(RegLinkFault, "FAULT", "fault mode: 0 none, 1 stuck, 2 corrupt",
			func() uint32 { return uint32(l.Fault()) },
			func(v uint32) error {
				if v > uint32(link.FaultCorrupt) {
					return fmt.Errorf("regmap: %s fault mode %d", b.DeviceName(), v)
				}
				l.SetFault(link.FaultMode(v))
				return nil
			})
		b.RO64(RegLinkFlits, "FLITS", "flits transported", l.Flits)
		b.RO64(RegLinkBusy, "BUSY", "cycles the wire carried a flit", l.BusyCycles)
		b.RO64(RegLinkCycles, "CYCLES", "committed cycles observed", l.TotalCycles)
		b.RO64(RegLinkOverruns, "OVERRUNS", "flits lost to double occupancy", l.Overruns)
		b.RO64(RegLinkCorrupt, "CORRUPTED", "flits whose payload a fault flipped", l.Corrupted)
		b.RO64(RegLinkHeld, "HELD", "cycles a staged flit was held by a stuck fault", l.HeldCycles)
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
		var shardSel uint32
		shard := func() (*flit.Shard, error) {
			sh := p.Shards()
			if int(shardSel) >= len(sh) {
				return nil, fmt.Errorf("regmap: pool shard %d out of range (shards %d)", shardSel, len(sh))
			}
			return sh[shardSel], nil
		}
		b.RO(RegType, "TYPE", "device class", func() uint32 { return TypePool })
		b.RO(RegSubtype, "SUBTYPE", "always 0", func() uint32 { return 0 })
		b.RO(RegPoolShards, "SHARDS", "number of per-endpoint shards",
			func() uint32 { return uint32(len(p.Shards())) })
		b.RO64(RegPoolAcquired, "ACQUIRED", "Acquire calls served across all shards", p.Acquired)
		b.RO64(RegPoolReleased, "RELEASED", "flits returned across all shards (orphans included)", p.Released)
		b.RO64(RegPoolAllocated, "ALLOCATED", "flits ever created (peak live population)", p.Allocated)
		b.RO64(RegPoolLive, "LIVE", "acquired minus released (two's complement)",
			func() uint64 { return uint64(p.Live()) })
		b.RW(RegShardSel, "SHARD_SEL", "shard index, creation order",
			func() uint32 { return shardSel },
			func(v uint32) error { shardSel = v; return nil })
		b.ROErr(RegShardOwner, "SHARD_OWNER", "selected shard's owning endpoint",
			func() (uint32, error) {
				s, err := shard()
				if err != nil {
					return 0, err
				}
				return uint32(s.Owner()), nil
			})
		// A counter of the selected shard; out of range is a bus error on
		// both halves, like SHARD_OWNER.
		counter := func(read func(*flit.Shard) uint64) func() (uint64, error) {
			return func() (uint64, error) {
				s, err := shard()
				if err != nil {
					return 0, err
				}
				return read(s), nil
			}
		}
		b.RO64Err(RegShardAcquired, "SHARD_ACQ", "selected shard's Acquire calls",
			counter((*flit.Shard).Acquired))
		b.RO64Err(RegShardReleased, "SHARD_REL", "selected shard's returned flits",
			counter((*flit.Shard).Released))
		b.RO64Err(RegShardAlloc, "SHARD_ALLOC", "selected shard's allocations",
			counter((*flit.Shard).Allocated))
	})
}
