package platform_test

import (
	"fmt"
	"testing"

	"nocemu/internal/platform"
	"nocemu/internal/regmap"
)

// TestLazyBanksAnswerLikeDeclaredOnes: a register bank declares itself on
// its first access, and nothing about the answers may show it. Two equal
// platforms run the same cycles; on one every mapped bank is declared
// right after Build, before any state exists to read, on the other each
// bank's first access is whatever this test does first. Over offsets
// 0x000–0x0FF of every device — the control module, switches, TGs, TRs,
// pool, links, and the probe on the traced paper platform — they agree on
// every read's value and error text, on every write's error text and the
// read back, and on the HI word a LO read latched before the platforms
// moved on.
func TestLazyBanksAnswerLikeDeclaredOnes(t *testing.T) {
	for name, cfg := range map[string]platform.Config{
		"paper":        paperSnapConfig(t, 40), // traced: the probe bank is mapped
		"mesh:w=4,h=4": zooConfig(t, "mesh:w=4,h=4", "uniform", 0),
	} {
		t.Run(name, func(t *testing.T) {
			lazy, eager := buildSnap(t, cfg, false, nil), buildSnap(t, cfg, false, nil)
			eagerDevs, lazyDevs := eager.System().Attachments(), lazy.System().Attachments()
			los := make([][]uint32, len(eagerDevs)) // per device: the LO offsets of its wide registers
			for i, a := range eagerDevs {
				for _, s := range a.Device.(interface{ Specs() []regmap.RegSpec }).Specs() {
					if s.Words == 2 {
						los[i] = append(los[i], s.Offset)
					}
				}
			}
			both := func(what string, f func(p *platform.Platform) (uint32, error)) {
				t.Helper()
				lv, lerr := f(lazy)
				ev, eerr := f(eager)
				if lv != ev || fmt.Sprint(lerr) != fmt.Sprint(eerr) {
					t.Fatalf("%s: the lazily declared bank answers %d, %v; the declared one %d, %v", what, lv, lerr, ev, eerr)
				}
			}
			run := func(n uint64) {
				lazy.RunCycles(n)
				eager.RunCycles(n)
			}
			run(700)
			// First access of each lazy bank: the LO half of its first wide
			// register. The platforms move on before the HI halves are read.
			for i, a := range lazyDevs {
				dev := func(p *platform.Platform) interface {
					ReadReg(uint32) (uint32, error)
					WriteReg(uint32, uint32) error
				} {
					d, _ := p.System().Lookup(a.Bus, a.Dev)
					return d
				}
				if a.Device.DeviceName() != eagerDevs[i].Device.DeviceName() {
					t.Fatalf("device %d is %s on one platform and %s on the other", i, a.Device.DeviceName(), eagerDevs[i].Device.DeviceName())
				}
				for _, off := range los[i] {
					both(fmt.Sprintf("%s LO 0x%03x", a.Device.DeviceName(), off), func(p *platform.Platform) (uint32, error) { return dev(p).ReadReg(off) })
				}
				run(3)
				for _, off := range los[i] {
					both(fmt.Sprintf("%s latched HI 0x%03x", a.Device.DeviceName(), off+1), func(p *platform.Platform) (uint32, error) { return dev(p).ReadReg(off + 1) })
				}
				for off := uint32(0); off <= 0xFF; off++ {
					at := fmt.Sprintf("%s 0x%03x", a.Device.DeviceName(), off)
					both(at+" read", func(p *platform.Platform) (uint32, error) { return dev(p).ReadReg(off) })
					both(at+" write", func(p *platform.Platform) (uint32, error) { return 0, dev(p).WriteReg(off, off%3) })
					both(at+" read back", func(p *platform.Platform) (uint32, error) { return dev(p).ReadReg(off) })
				}
			}
			// The writes above (resets, reseeds, faults, limits) hit both
			// alike: the platforms still run in step.
			run(300)
			if got, want := capture(t, lazy), capture(t, eager); !got.equal(want) {
				t.Errorf("after the same accesses the platforms diverged: %s", got.diff(want))
			}
		})
	}
}
