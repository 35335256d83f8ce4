package traffic

import (
	"fmt"
	"sort"

	"nocemu/internal/flit"
)

// WorkloadEnv is what a workload recipe knows about the platform it is
// generating traffic for: the source/sink endpoint lists (index-aligned
// — source i and sink i share a terminal), the target injection rate in
// flits per cycle per source, the packet length, and a seed that
// controls the workload's structural choices (e.g. which sink is the
// hotspot victim). Per-generator random streams are seeded separately
// by the platform layer. The emitted configs share Sinks rather than
// copy it, so the caller must not modify it afterwards.
type WorkloadEnv struct {
	Sources   []flit.EndpointID
	Sinks     []flit.EndpointID
	Injection float64
	PacketLen uint16
	Seed      uint32
}

// Workload is a registered traffic recipe: given the endpoint lists it
// emits one Config per source (nil for a pure script source).
// Registering a workload makes it selectable from JSON configs and the
// -wl CLI flag.
type Workload struct {
	// Kind is the registry key ("uniform", "hotspot", ...).
	Kind string
	// Summary is a one-line description for docs and flag help.
	Summary string
	// Build emits the per-source traffic configurations.
	Build func(env WorkloadEnv) ([]Config, error)
}

var workloads = map[string]Workload{}

// RegisterWorkload adds a workload recipe; it panics on duplicate or
// empty kinds (registration is an init-time programming act).
func RegisterWorkload(w Workload) {
	if w.Kind == "" {
		panic("traffic: RegisterWorkload with empty kind")
	}
	if w.Build == nil {
		panic(fmt.Sprintf("traffic: RegisterWorkload(%q) with nil Build", w.Kind))
	}
	if _, dup := workloads[w.Kind]; dup {
		panic(fmt.Sprintf("traffic: RegisterWorkload(%q) called twice", w.Kind))
	}
	workloads[w.Kind] = w
}

// LookupWorkload returns the workload registered under kind.
func LookupWorkload(kind string) (Workload, bool) {
	w, ok := workloads[kind]
	return w, ok
}

// Workloads returns every registered workload, sorted by kind.
func Workloads() []Workload {
	out := make([]Workload, 0, len(workloads))
	for _, w := range workloads {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// WorkloadKinds returns the sorted registered workload names.
func WorkloadKinds() []string {
	out := make([]string, 0, len(workloads))
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (e WorkloadEnv) check() error {
	if len(e.Sources) == 0 || len(e.Sources) != len(e.Sinks) {
		return fmt.Errorf("traffic: workload env with %d sources, %d sinks", len(e.Sources), len(e.Sinks))
	}
	if e.Injection <= 0 || e.Injection > 1 {
		return fmt.Errorf("traffic: workload injection %g not in (0,1]", e.Injection)
	}
	if e.PacketLen < 1 {
		return fmt.Errorf("traffic: workload packet length %d", e.PacketLen)
	}
	return nil
}

// otherSinks is source self's destination set under policy: every sink
// but its own. The sink list is shared by every source, not copied per
// source: a draw of r.Intn(n-1) that steps past self picks what the
// same draw picks from a copy without self.
func otherSinks(env WorkloadEnv, policy DstPolicy, self int) DstConfig {
	return DstConfig{Policy: policy, Dsts: env.Sinks, skip: self + 1}
}

// uniformGapMax sizes the uniform model's gap so the mean offered load
// is the requested injection rate: mean gap = gapMax/2 and load =
// len/(len+meanGap), hence gapMax = 2*len*(1-inj)/inj.
func uniformGapMax(packetLen uint16, injection float64) uint32 {
	return uint32(2 * float64(packetLen) * (1 - injection) / injection)
}

func init() {
	RegisterWorkload(Workload{
		Kind:    "uniform",
		Summary: "uniform random: every source sends fixed-length packets to uniformly drawn other sinks",
		Build: func(env WorkloadEnv) ([]Config, error) {
			if err := env.check(); err != nil {
				return nil, err
			}
			out := make([]Config, len(env.Sources))
			for i := range env.Sources {
				out[i] = &UniformConfig{
					LenMin: env.PacketLen, LenMax: env.PacketLen,
					GapMin: 0, GapMax: uniformGapMax(env.PacketLen, env.Injection),
					Dst:         otherSinks(env, DstUniform, i),
					RandomPhase: true,
				}
			}
			return out, nil
		},
	})
	RegisterWorkload(Workload{
		Kind:    "hotspot",
		Summary: "uniform background with 25% of traffic converging on one seed-picked victim sink",
		Build: func(env WorkloadEnv) ([]Config, error) {
			if err := env.check(); err != nil {
				return nil, err
			}
			hot := []flit.EndpointID{env.Sinks[int(env.Seed)%len(env.Sinks)]}
			out := make([]Config, len(env.Sources))
			for i := range env.Sources {
				dst := otherSinks(env, DstHotspot, i)
				dst.Hot, dst.HotQ16 = hot, 16384 // 25% of draws hit the victim
				out[i] = &UniformConfig{
					LenMin: env.PacketLen, LenMax: env.PacketLen,
					GapMin: 0, GapMax: uniformGapMax(env.PacketLen, env.Injection),
					Dst:         dst,
					RandomPhase: true,
				}
			}
			return out, nil
		},
	})
	RegisterWorkload(Workload{
		Kind:    "incast",
		Summary: "synchronized many-to-one waves: all sources burst 8 packets at the same rotating victim each epoch",
		Build: func(env WorkloadEnv) ([]Config, error) {
			if err := env.check(); err != nil {
				return nil, err
			}
			const packetsPerWave = 8
			// The epoch spreads a wave's flits to the mean injection
			// rate; every generator shares it, plus offset 0 and the
			// same round-robin rotation, so waves stay synchronized.
			epoch := uint64(float64(packetsPerWave) * float64(env.PacketLen) / env.Injection)
			if epoch < 1 {
				epoch = 1
			}
			out := make([]Config, len(env.Sources))
			for i := range env.Sources {
				out[i] = &IncastConfig{
					Epoch:          epoch,
					PacketsPerWave: packetsPerWave,
					LenMin:         env.PacketLen, LenMax: env.PacketLen,
					Dst: DstConfig{Policy: DstRoundRobin, Dsts: env.Sinks},
				}
			}
			return out, nil
		},
	})
	RegisterWorkload(Workload{
		Kind:    "flows",
		Summary: "flow-based arrivals with bounded-Pareto (heavy-tailed) flow sizes, 1-64 packets",
		Build: func(env WorkloadEnv) ([]Config, error) {
			if err := env.check(); err != nil {
				return nil, err
			}
			const sizeMin, sizeMax = 1, 64
			// Mean bounded-Pareto size for [1,64] at α=1 is ≈5 packets;
			// pick the idle-cycle arrival probability so the long-run
			// busy fraction matches the requested injection rate.
			const meanFlowPackets = 5.0
			meanFlits := meanFlowPackets * float64(env.PacketLen)
			arrival := uint32(0xFFFF) // injection 1: saturate
			if env.Injection < 1 {
				p := env.Injection / (meanFlits * (1 - env.Injection))
				arrival = uint32(p * 65536)
				if arrival < 1 {
					arrival = 1
				}
				if arrival > 0xFFFF {
					arrival = 0xFFFF
				}
			}
			out := make([]Config, len(env.Sources))
			for i := range env.Sources {
				out[i] = &FlowConfig{
					ArrivalQ16: uint16(arrival),
					SizeMin:    sizeMin, SizeMax: sizeMax,
					LenMin: env.PacketLen, LenMax: env.PacketLen,
					Dst: otherSinks(env, DstUniform, i),
				}
			}
			return out, nil
		},
	})
}
