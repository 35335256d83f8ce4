package regdoc

import (
	"os"
	"strings"
	"testing"
)

// TestRenderMatchesCommittedDoc is the in-tree version of the `make
// check` drift gate: the committed REGISTERS.md must be exactly what
// the live schema renders.
func TestRenderMatchesCommittedDoc(t *testing.T) {
	got, err := Render()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../REGISTERS.md")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Error("REGISTERS.md is stale: run 'make regs' (or `go run ./cmd/nocgen regs > REGISTERS.md`)")
	}
}

// TestRenderCoversEveryDeviceClass spot-checks that each device class
// section and the schema-derived details are present.
func TestRenderCoversEveryDeviceClass(t *testing.T) {
	got, err := Render()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Control module (TYPE = 4)",
		"## Traffic generator (TYPE = 1)",
		"## Traffic receptor (TYPE = 2)",
		"## Switch (TYPE = 3)",
		"## Link (TYPE = 5)",
		"## Flit pool (TYPE = 6)",
		"| uniform | len_min | len_max | gap_min | gap_max |",
		"PARAM[i]",
		"| 0x040/1 | LAT_MEAN_F64 | ro |",
		"0x020+i (i<16)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("rendered doc missing %q", want)
		}
	}
}
