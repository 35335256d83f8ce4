package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocemu/internal/jsonio"
	"nocemu/internal/trace"
)

func TestRunBurstTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "b.trace")
	err := run("burst", 100, "t", out, false, false,
		5, 4, 2, 0.5, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 20 {
		t.Errorf("records = %d", len(tr.Records))
	}
}

func TestRunCBRBinary(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "c.ntrc")
	err := run("cbr", 100, "t", out, true, false,
		0, 0, 0, 0, 10, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 10 || tr.Records[0].Len != 3 {
		t.Errorf("trace = %d records", len(tr.Records))
	}
}

func TestRunExampleConfig(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "cfg.json")
	err := run("burst", 0, "", out, false, true,
		0, 0, 0, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := jsonio.LoadFileRun(out)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "example-ring" {
		t.Errorf("config name = %q", cfg.Name)
	}
}

func TestRunRejectsUnknownKind(t *testing.T) {
	if err := run("warp", 1, "t", "", false, false, 1, 1, 1, 0.5, 1, 1, 2); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := run("burst", 1, "t", "", false, false, 0, 1, 1, 0.5, 1, 1, 2); err == nil {
		t.Error("invalid burst shape accepted")
	}
}

func TestRunWritesToStdoutByDefault(t *testing.T) {
	// Redirect stdout to a pipe to keep test output clean.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run("cbr", 5, "x", "", false, false, 0, 0, 0, 0, 3, 1, 4)
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	buf := make([]byte, 1<<16)
	n, _ := r.Read(buf)
	if !strings.Contains(string(buf[:n]), "nocemu-trace") {
		t.Error("no trace on stdout")
	}
}
