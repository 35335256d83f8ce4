package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunSubsetWithCSV(t *testing.T) {
	dir := t.TempDir()
	// Silence stdout during the run.
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	runErr := run(map[string]bool{"t1": true, "f4": true, "vc": true}, dir, false)
	os.Stdout = old
	null.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if _, err := os.Stat(filepath.Join(dir, "figure4.csv")); err != nil {
		t.Errorf("figure4.csv missing: %v", err)
	}
}

func TestRunUnknownSelectionIsNoop(t *testing.T) {
	if err := run(map[string]bool{"bogus": true}, "", false); err != nil {
		t.Errorf("unknown selection errored: %v", err)
	}
}
