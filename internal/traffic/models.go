// The traffic-model table: the one place that enumerates which models
// exist. A model's name, its SUBTYPE register code, the JSON object a
// platform file configures it with and the way to construct it are all
// read from here (or from a Config), so adding a model is its generator,
// its Config and one row of this table.
package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/trace"
)

// Config is one traffic generator's model together with that model's
// construction-time configuration — what a platform TG spec holds. Each
// model's config type implements it on its pointer (&UniformConfig{...},
// &TraceConfig{...}); a nil Config is a pure script source, which has no
// model of its own (see ScriptGen).
type Config interface {
	// Model returns the model's name in the table.
	Model() string
	// New validates the configuration and builds the generator.
	New() (Generator, error)
}

// TraceConfig configures trace replay: the recorded traffic itself.
type TraceConfig struct {
	Trace *trace.Trace
}

// Model implements Config for each model's configuration; the names are
// the table's, and a stochastic model's generator reports its
// configuration's (bank.ModelName).
func (UniformConfig) Model() string { return "uniform" }
func (BurstConfig) Model() string   { return "burst" }
func (PoissonConfig) Model() string { return "poisson" }
func (TraceConfig) Model() string   { return "trace" }
func (FlowConfig) Model() string    { return "flow" }
func (IncastConfig) Model() string  { return "incast" }

// New implements Config for each model's configuration.
func (c *UniformConfig) New() (Generator, error) { return NewUniform(*c) }
func (c *BurstConfig) New() (Generator, error)   { return NewBurst(*c) }
func (c *PoissonConfig) New() (Generator, error) { return NewPoisson(*c) }
func (c *TraceConfig) New() (Generator, error)   { return NewTraceGen(c.Trace) }
func (c *FlowConfig) New() (Generator, error)    { return NewFlowGen(*c) }
func (c *IncastConfig) New() (Generator, error)  { return NewIncastGen(*c) }

// ModelInput is what a textual platform description supplies for one
// traffic generator; each model's row takes what it needs from it.
type ModelInput struct {
	// Params is the model's JSON parameter object — in the file, the
	// value under the key named after the model (nil when absent).
	Params []byte
	// Dst is the generator's destination selection.
	Dst DstConfig
	// LoadTrace reads the trace file the description names (nil when
	// it names none).
	LoadTrace func() (*trace.Trace, error)
}

// Model is one row of the table.
type Model struct {
	// Name is the model's name in configs, reports and documentation.
	Name string
	// Subtype is the model's TG SUBTYPE register code: non-zero, unique,
	// and never renumbered (software decodes it).
	Subtype uint32
	// sample is a valid JSON parameter object for Sample ("" when the
	// model takes none).
	sample string
	// decode builds the model's Config from a description; nil for
	// script, which has none.
	decode func(ModelInput) (Config, error)
}

var models = []Model{
	{"uniform", 1, `{"len_min":1,"len_max":2,"gap_min":1,"gap_max":2}`,
		params(func(d DstConfig) Config { return &UniformConfig{Dst: d} })},
	{"burst", 2, `{"p_off_on":100,"p_on_off":100,"len_min":1,"len_max":2}`,
		params(func(d DstConfig) Config { return &BurstConfig{Dst: d} })},
	{"poisson", 3, `{"lambda":100,"len_min":1,"len_max":2}`,
		params(func(d DstConfig) Config { return &PoissonConfig{Dst: d} })},
	{"trace", 4, "", replay},
	{"flow", 5, `{"arrival_q16":100,"size_min":1,"size_max":8,"len_min":1,"len_max":2}`,
		params(func(d DstConfig) Config { return &FlowConfig{Dst: d} })},
	{"incast", 6, `{"epoch":100,"packets_per_wave":4,"len_min":1,"len_max":2}`,
		params(func(d DstConfig) Config { return &IncastConfig{Dst: d} })},
	{"script", 7, "", nil},
}

// params is the decode of a model configured by a JSON parameter
// object: blank returns the model's empty Config carrying the
// destination selection, and the object is decoded strictly over it.
func params(blank func(DstConfig) Config) func(ModelInput) (Config, error) {
	return func(in ModelInput) (Config, error) {
		cfg := blank(in.Dst)
		if in.Params == nil {
			return nil, fmt.Errorf("traffic: %s model without its %q object", cfg.Model(), cfg.Model())
		}
		dec := json.NewDecoder(bytes.NewReader(in.Params))
		dec.DisallowUnknownFields()
		if err := dec.Decode(cfg); err != nil {
			return nil, fmt.Errorf("traffic: %s model: %v", cfg.Model(), err)
		}
		return cfg, nil
	}
}

// replay is the trace model's decode: it is configured by a trace file,
// not a parameter object.
func replay(in ModelInput) (Config, error) {
	if in.LoadTrace == nil {
		return nil, fmt.Errorf("traffic: trace model without trace_file")
	}
	tr, err := in.LoadTrace()
	if err != nil {
		return nil, err
	}
	return &TraceConfig{Trace: tr}, nil
}

// Models returns the table, ordered by SUBTYPE code.
func Models() []Model { return append([]Model(nil), models...) }

// LookupModel returns the row of the named model.
func LookupModel(name string) (Model, bool) {
	for _, m := range models {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}

// DecodeModel builds the named model's Config from a textual TG
// description. The script model is not decodable: it has no Config (a
// platform TG spec leaves Gen nil).
func DecodeModel(name string, in ModelInput) (Config, error) {
	m, ok := LookupModel(name)
	if !ok || m.decode == nil {
		return nil, fmt.Errorf("traffic: unknown model %q", name)
	}
	return m.decode(in)
}

// Sample builds a small valid generator of the model — what the register
// documentation and the table's tests instantiate.
func (m Model) Sample() (Generator, error) {
	if m.decode == nil {
		return NewScript(nil), nil
	}
	cfg, err := m.decode(ModelInput{
		Params: []byte(m.sample),
		Dst:    DstConfig{Policy: DstFixed, Dsts: []flit.EndpointID{1}},
		LoadTrace: func() (*trace.Trace, error) {
			return &trace.Trace{Name: "sample", Records: []trace.Record{{Dst: 1, Len: 1}}}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return cfg.New()
}

// modelOf returns the model a built generator runs: the wrapped one for
// a scripted overlay, the generator itself otherwise.
func modelOf(g Generator) Generator {
	if s, ok := g.(*ScriptGen); ok && s.inner != nil {
		return s.inner
	}
	return g
}

// Subtype returns the SUBTYPE register code of a built generator. A
// scripted overlay reports the model it wraps.
func Subtype(g Generator) uint32 {
	m, _ := LookupModel(modelOf(g).ModelName())
	return m.Subtype
}

// Params returns the parameter registers of a built generator. A
// scripted overlay exposes those of the model it wraps, as Subtype
// reports that model's code.
func Params(g Generator) (Parameterized, bool) {
	p, ok := modelOf(g).(Parameterized)
	return p, ok
}

// SubtypeName decodes a SUBTYPE register value back to the model name —
// the monitor's bus-side decode.
func SubtypeName(code uint32) string {
	for _, m := range models {
		if m.Subtype == code {
			return m.Name
		}
	}
	return fmt.Sprintf("model(%d)", code)
}
