package traffic

import (
	"encoding/json"
	"strings"
	"testing"

	"nocemu/internal/flit"
)

// TestModelTable checks the table against the code it describes: codes
// are unique, non-zero and (for the paper's four models) the ones
// software has always decoded; every row builds a generator that names
// itself as the row does; and the register names a Parameterized model
// documents are keys of its JSON object.
func TestModelTable(t *testing.T) {
	pinned := map[string]uint32{"uniform": 1, "burst": 2, "poisson": 3, "trace": 4}
	seenCode, seenName := map[uint32]bool{}, map[string]bool{}
	for _, m := range Models() {
		if m.Subtype == 0 || seenCode[m.Subtype] || seenName[m.Name] {
			t.Errorf("row %q: SUBTYPE %d is zero or the row is a duplicate", m.Name, m.Subtype)
		}
		seenCode[m.Subtype], seenName[m.Name] = true, true
		if want, ok := pinned[m.Name]; ok && m.Subtype != want {
			t.Errorf("%s renumbered to SUBTYPE %d, software decodes %d", m.Name, m.Subtype, want)
		}
		if got, ok := LookupModel(m.Name); !ok || got.Subtype != m.Subtype {
			t.Errorf("LookupModel(%q) = %+v, %v", m.Name, got, ok)
		}
		if got := SubtypeName(m.Subtype); got != m.Name {
			t.Errorf("SubtypeName(%d) = %q, want %q", m.Subtype, got, m.Name)
		}
		gen, err := m.Sample()
		if err != nil {
			t.Errorf("%s: sample does not build: %v", m.Name, err)
			continue
		}
		if gen.ModelName() != m.Name || Subtype(gen) != m.Subtype || Subtype(NewScript(gen)) != m.Subtype {
			t.Errorf("%s: generator names itself %q, SUBTYPE %d (scripted %d)",
				m.Name, gen.ModelName(), Subtype(gen), Subtype(NewScript(gen)))
		}
		p, ok := gen.(Parameterized)
		if !ok {
			continue
		}
		if len(p.ParamNames()) == 0 {
			t.Errorf("%s: Parameterized with no parameter names", m.Name)
		}
		if m.sample == "" {
			continue
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(m.sample), &keys); err != nil {
			t.Fatalf("%s: sample object: %v", m.Name, err)
		}
		for _, name := range p.ParamNames() {
			if _, ok := keys[name]; !ok {
				t.Errorf("%s: register %q is not a key of the model's JSON object", m.Name, name)
			}
		}
	}
	if got := SubtypeName(99); got != "model(99)" {
		t.Errorf("SubtypeName(99) = %q", got)
	}
}

// TestDecodeModel: a model's JSON object decodes into a Config that
// names the model, carries the destination selection and builds; the
// misuses are rejected by name.
func TestDecodeModel(t *testing.T) {
	dst := DstConfig{Policy: DstFixed, Dsts: []flit.EndpointID{7}}
	cfg, err := DecodeModel("uniform", ModelInput{
		Params: []byte(`{"len_min": 2, "len_max": 3, "gap_min": 4, "gap_max": 5, "random_phase": true}`), Dst: dst,
	})
	if err != nil {
		t.Fatal(err)
	}
	u, ok := cfg.(*UniformConfig)
	if !ok || cfg.Model() != "uniform" || u.LenMax != 3 || u.GapMin != 4 || !u.RandomPhase || u.Dst.Dsts[0] != 7 {
		t.Fatalf("decoded %T %+v", cfg, cfg)
	}
	if _, err := cfg.New(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, model, params, want string
	}{
		{"unknown model", "warp", `{}`, `unknown model "warp"`},
		{"script has no config", "script", `{}`, `unknown model "script"`},
		{"model without its object", "flow", "", `without its "flow" object`},
		{"unknown field", "poisson", `{"lambda": 1, "len_min": 1, "len_max": 1, "mu": 2}`, `unknown field "mu"`},
		{"trace without a file", "trace", "", "without trace_file"},
	} {
		in := ModelInput{Dst: dst}
		if c.params != "" {
			in.Params = []byte(c.params)
		}
		if _, err := DecodeModel(c.model, in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}
