// Sweep configuration schema: the JSON shape cmd/nocsweep consumes and
// lowers into a dse.Config. Axes are lists; their cross product is the
// swept grid, and list order is the Pareto search's lattice order.
package jsonio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nocemu/internal/dse"
	"nocemu/internal/fault"
	"nocemu/internal/link"
	"nocemu/internal/topology"
)

// SweepFaultSpec is one link fault of a campaign.
type SweepFaultSpec struct {
	// Link is the topology link index the fault applies to.
	Link int `json:"link"`
	// Mode is "stuck" (wire holds, upstream stalls) or "corrupt"
	// (payload bits flip, NI checksums catch them).
	Mode string `json:"mode"`
	// From/Until bound the fault window in cycles (Until 0 = forever).
	From  uint64 `json:"from,omitempty"`
	Until uint64 `json:"until,omitempty"`
}

// SweepCampaign names one fault campaign of the fault axis.
type SweepCampaign struct {
	Name  string           `json:"name"`
	Specs []SweepFaultSpec `json:"specs,omitempty"`
}

// SweepFile is the sweep configuration schema.
type SweepFile struct {
	// Name labels the sweep in summaries.
	Name string `json:"name,omitempty"`
	// Topologies lists topology specs in "kind:p=1,q=2" form (required).
	Topologies []string `json:"topologies"`
	// Workloads lists registered workload kinds (default ["uniform"]).
	Workloads []string `json:"workloads,omitempty"`
	// BufDepths lists switch buffer depths (default [4]).
	BufDepths []int `json:"buf_depths,omitempty"`
	// Injections lists offered loads in flits/node/cycle (default [0.1]).
	Injections []float64 `json:"injections,omitempty"`
	// Faults lists fault campaigns (default: fault-free only).
	Faults []SweepCampaign `json:"faults,omitempty"`
	// Forks is the seed replicates per structural point (default 1).
	Forks int `json:"forks,omitempty"`
	// WarmupCycles/MeasureCycles shape each evaluation (defaults 2000).
	WarmupCycles  uint64 `json:"warmup_cycles,omitempty"`
	MeasureCycles uint64 `json:"measure_cycles,omitempty"`
	// PacketLen is the packet size in flits (default 4).
	PacketLen uint16 `json:"packet_len,omitempty"`
	// Seed/WorkloadSeed pin the sweep's randomness.
	Seed         uint32 `json:"seed,omitempty"`
	WorkloadSeed uint32 `json:"workload_seed,omitempty"`
	// Workers is the number of dedicated sweep workers (dse.Config.Workers).
	Workers int `json:"workers,omitempty"`
	// Search is "grid" (default) or "pareto".
	Search string `json:"search,omitempty"`
	// Objectives name the Pareto objectives (default latency,
	// throughput, area).
	Objectives []string `json:"objectives,omitempty"`
	// Journal and CacheDir enable resumability (relative paths are
	// anchored at the config file's directory).
	Journal  string `json:"journal,omitempty"`
	CacheDir string `json:"cache_dir,omitempty"`
}

// ToSweep lowers the file into a sweep configuration; baseDir anchors
// relative journal/cache paths.
func (f *SweepFile) ToSweep(baseDir string) (dse.Config, error) {
	cfg := dse.Config{
		Name:          f.Name,
		Forks:         f.Forks,
		WarmupCycles:  f.WarmupCycles,
		MeasureCycles: f.MeasureCycles,
		PacketLen:     f.PacketLen,
		Seed:          f.Seed,
		WorkloadSeed:  f.WorkloadSeed,
		Workers:       f.Workers,
		Search:        dse.Search(f.Search),
		Objectives:    f.Objectives,
		Journal:       anchorPath(baseDir, f.Journal),
		CacheDir:      anchorPath(baseDir, f.CacheDir),
	}
	if len(f.Topologies) == 0 {
		return dse.Config{}, fmt.Errorf("jsonio: sweep has no topologies")
	}
	for _, text := range f.Topologies {
		spec, err := topology.ParseSpec(text)
		if err != nil {
			return dse.Config{}, fmt.Errorf("jsonio: sweep topology %q: %w", text, err)
		}
		cfg.Axes.Topos = append(cfg.Axes.Topos, spec)
	}
	cfg.Axes.Workloads = append(cfg.Axes.Workloads, f.Workloads...)
	cfg.Axes.BufDepths = append(cfg.Axes.BufDepths, f.BufDepths...)
	cfg.Axes.Injections = append(cfg.Axes.Injections, f.Injections...)
	for _, camp := range f.Faults {
		fc := dse.FaultCampaign{Name: camp.Name}
		for _, s := range camp.Specs {
			var mode link.FaultMode
			switch s.Mode {
			case "stuck":
				mode = link.FaultStuck
			case "corrupt":
				mode = link.FaultCorrupt
			default:
				return dse.Config{}, fmt.Errorf("jsonio: sweep fault mode %q (want stuck or corrupt)", s.Mode)
			}
			fc.Specs = append(fc.Specs, fault.Spec{Link: s.Link, Mode: mode, From: s.From, Until: s.Until})
		}
		cfg.Axes.Faults = append(cfg.Axes.Faults, fc)
	}
	return cfg, nil
}

// anchorPath anchors a relative path at baseDir.
func anchorPath(baseDir, path string) string {
	if path == "" || filepath.IsAbs(path) || baseDir == "" {
		return path
	}
	return filepath.Join(baseDir, path)
}

// LoadSweep parses a sweep configuration from r; baseDir anchors
// relative journal/cache paths.
func LoadSweep(r io.Reader, baseDir string) (dse.Config, error) {
	var f SweepFile
	if err := decodeStrict(r, &f); err != nil {
		return dse.Config{}, fmt.Errorf("jsonio: %v", err)
	}
	return f.ToSweep(baseDir)
}

// LoadSweepFile parses a sweep configuration file.
func LoadSweepFile(path string) (dse.Config, error) {
	r, err := os.Open(path)
	if err != nil {
		return dse.Config{}, err
	}
	defer r.Close()
	return LoadSweep(r, filepath.Dir(path))
}
