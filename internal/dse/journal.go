package dse

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
)

// journal is the append-only completion log: one JSONL row per finished
// (point, fork), written in completion order (nondeterministic wherever
// points run side by side — the canonical result set is the key-sorted
// union).
// A sweep pointed at an existing journal resumes: journaled rows are
// adopted verbatim and their points are never re-evaluated.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	rows map[string]Row // every journaled row by key
}

// openJournal loads the sweep's existing journal (if any) and opens it
// for appending. A missing file starts an empty journal. Rows are later
// adopted by RowKey alone, so one recorded under another warm-up or
// measure length — all the row format shows of the configuration — is
// an error.
//
// A sweep killed mid-write leaves a last row without its newline. That
// tail is cut off, back to the last newline, and its point is evaluated
// again like any point the journal lacks a row of; a malformed row that
// did get its newline stays an error naming the row.
func openJournal(cfg *Config) (*journal, error) {
	j := &journal{rows: map[string]Row{}}
	path := cfg.Journal
	if path == "" {
		return j, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	rows, err := readJournal(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	for _, r := range rows {
		if r.WarmupCycles != cfg.WarmupCycles || r.MeasureCycles != cfg.MeasureCycles {
			f.Close()
			return nil, fmt.Errorf("dse: journal %s: row %s has warmup_cycles=%d measure_cycles=%d, the sweep has %d and %d (a journal belongs to one sweep configuration)",
				path, r.Key, r.WarmupCycles, r.MeasureCycles, cfg.WarmupCycles, cfg.MeasureCycles)
		}
		j.rows[r.Key] = r
	}
	j.f = f
	return j, nil
}

// readJournal parses a journal open for reading and writing, first
// truncating an unterminated last row.
func readJournal(f *os.File) ([]Row, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if keep := bytes.LastIndexByte(data, '\n') + 1; keep < len(data) {
		if err := f.Truncate(int64(keep)); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
		data = data[:keep]
	}
	return ReadRows(bytes.NewReader(data))
}

// has reports whether every fork row of a structural point is already
// journaled (keys generated by keyFn for forks 0..forks-1). Partially
// journaled points — a sweep killed mid-batch — are re-evaluated whole;
// re-computed rows are byte-identical, and append drops the duplicates.
func (j *journal) has(keyFn func(fork int) string, forks int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := 0; i < forks; i++ {
		if _, ok := j.rows[keyFn(i)]; !ok {
			return false
		}
	}
	return true
}

// append records rows, skipping keys already journaled, and flushes
// them to the journal file so a kill right after loses at most the
// in-flight points.
func (j *journal) append(rows []Row) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var fresh []Row
	for _, r := range rows {
		if _, dup := j.rows[r.Key]; dup {
			continue
		}
		j.rows[r.Key] = r
		fresh = append(fresh, r)
	}
	if j.f == nil || len(fresh) == 0 {
		return nil
	}
	if err := WriteRows(j.f, fresh); err != nil {
		return err
	}
	return j.f.Sync()
}

// get returns the journaled row for a key.
func (j *journal) get(key string) (Row, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.rows[key]
	return r, ok
}

func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// LoadJournal reads a journal (or results) file into its row set.
func LoadJournal(path string) ([]Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadRows(f)
}
