package topology

import (
	"fmt"
	"sort"
)

// ParamDoc documents one integer parameter of a generator.
type ParamDoc struct {
	Name    string
	Default int
	Doc     string
}

// ParamVCs is the parameter name a generator declares when its Router
// emits virtual-channel classes: FromSpec range-checks it and records
// it on the built topology (NumVC), so the channel count travels with
// the spec through every front end.
const ParamVCs = "vcs"

// Params carries a generator's resolved parameters: every documented
// parameter is present (defaults filled in by FromSpec).
type Params map[string]int

// Get returns a resolved parameter value.
func (p Params) Get(name string) int { return p[name] }

// Generator is one registered topology family. Registering a generator
// is all it takes to make a new topology reachable from JSON configs,
// the -topo flag and the TOPOLOGIES.md catalog: the Build closure emits
// the switch graph (with its Router annotation and Terminals list), and
// the metadata renders the documentation.
type Generator struct {
	// Kind is the registry key ("mesh", "fattree", ...).
	Kind string
	// Summary is a one-line description for the catalog.
	Summary string
	// Params documents the accepted parameters; FromSpec rejects
	// parameters outside this list and fills defaults for omitted ones.
	Params []ParamDoc
	// RoutingDoc names the route-table scheme the generator's Router
	// emits ("XY dimension-ordered", "up*/down*", ...).
	RoutingDoc string
	// Notes carries extra catalog context (deadlock caveats, terminal
	// placement).
	Notes string
	// Example is a small representative spec the catalog renders radix,
	// diameter and deadlock status from.
	Example Spec
	// Build materializes the topology from resolved parameters.
	Build func(p Params) (*Topology, error)
}

var generators = map[string]Generator{}

// Register adds a generator to the registry; it panics on duplicate or
// empty kinds (registration is an init-time programming act, like
// flag.Var).
func Register(g Generator) {
	if g.Kind == "" {
		panic("topology: Register with empty kind")
	}
	if g.Build == nil {
		panic(fmt.Sprintf("topology: Register(%q) with nil Build", g.Kind))
	}
	if _, dup := generators[g.Kind]; dup {
		panic(fmt.Sprintf("topology: Register(%q) called twice", g.Kind))
	}
	generators[g.Kind] = g
}

// Lookup returns the generator registered under kind.
func Lookup(kind string) (Generator, bool) {
	g, ok := generators[kind]
	return g, ok
}

// List returns every registered generator, sorted by kind.
func List() []Generator {
	out := make([]Generator, 0, len(generators))
	for _, g := range generators {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// Kinds returns the sorted registered kind names.
func Kinds() []string {
	out := make([]string, 0, len(generators))
	for k := range generators {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FromSpec materializes a topology from a declarative spec: it resolves
// the generator, validates the parameter names, fills defaults and
// builds the switch graph.
func FromSpec(s Spec) (*Topology, error) {
	g, ok := Lookup(s.Kind)
	if !ok {
		return nil, fmt.Errorf("topology: unknown kind %q (known: %v)", s.Kind, Kinds())
	}
	resolved := make(Params, len(g.Params))
	for _, pd := range g.Params {
		resolved[pd.Name] = pd.Default
	}
	for name, v := range s.Param {
		if _, known := resolved[name]; !known {
			return nil, fmt.Errorf("topology: kind %q has no parameter %q (params: %v)",
				s.Kind, name, paramNames(g))
		}
		resolved[name] = v
	}
	vcs, hasVCs := resolved[ParamVCs]
	if hasVCs && (vcs < 1 || vcs > MaxVCs) {
		return nil, fmt.Errorf("topology: kind %q: %s=%d out of [1,%d]", s.Kind, ParamVCs, vcs, MaxVCs)
	}
	t, err := g.Build(resolved)
	if err != nil {
		return nil, err
	}
	t.SetNumVC(vcs)
	return t, nil
}

func paramNames(g Generator) []string {
	names := make([]string, len(g.Params))
	for i, pd := range g.Params {
		names[i] = pd.Name
	}
	return names
}
