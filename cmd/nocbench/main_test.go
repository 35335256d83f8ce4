package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this run")

func TestRunSubsetWithCSV(t *testing.T) {
	for _, tc := range []struct {
		exp    string
		golden string // testdata file pinning stdout and every CSV; "" checks order and figure4.csv only
	}{
		{"f4,t1", ""},
		// t2 and scale print host speeds, so they cannot be pinned.
		{"t1,f1,f2,f3,f4,sat,vc,buf", "testdata/golden.txt"},
	} {
		dir := t.TempDir()
		var out strings.Builder
		if err := run(&out, tc.exp, dir); err != nil {
			t.Fatal(err)
		}
		if tc.golden == "" {
			t1, f4 := strings.Index(out.String(), "=== Table 1"), strings.Index(out.String(), "=== Figure 4")
			if t1 < 0 || f4 < t1 {
				t.Errorf("-exp %s did not print in table order:\n%s", tc.exp, out.String())
			}
			if _, err := os.Stat(filepath.Join(dir, "figure4.csv")); err != nil {
				t.Errorf("figure4.csv missing: %v", err)
			}
			continue
		}
		got := "-- stdout --\n" + out.String()
		for _, name := range []string{"figure2.csv", "figure3.csv", "figure4.csv", "saturation.csv"} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			got += "-- " + name + " --\n" + string(b)
		}
		if *update {
			if err := os.WriteFile(tc.golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatalf("%v (run with -update to record)", err)
		}
		if got != string(want) {
			t.Errorf("-exp %s differs from %s:\n%s", tc.exp, tc.golden, got)
		}
	}
}

// TestRunUnknownSelectionErrors: a mistyped key fails before anything
// runs and names the valid keys; "none" runs nothing.
func TestRunUnknownSelectionErrors(t *testing.T) {
	var out strings.Builder
	err := run(&out, "t1,f5", "")
	if err == nil || !strings.Contains(err.Error(), `"f5"`) || !strings.Contains(err.Error(), "t1,t2,f1,f2,f3,scale,sat,buf,vc,f4") {
		t.Errorf("unknown key: err = %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("ran before resolving every key:\n%s", out.String())
	}
	if err := run(&out, "none", ""); err != nil || out.Len() != 0 {
		t.Errorf("none: err = %v, printed %q", err, out.String())
	}
}
