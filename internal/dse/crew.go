package dse

import (
	"sync"
	"sync/atomic"

	"nocemu/internal/engine"
)

// crew runs the jobs 0..n−1 — a batch's structural points, a point's
// forks — on a crew: the caller's goroutine, workers−1 goroutines
// beside it, and as many helpers, up to n−workers, as the engine's
// process-wide budget has free (engine.TakeHelpers, which never
// blocks; none on a one-processor host or while the budget is held).
// The caller runs job 0 first; a shared counter hands out the others in
// index order to whichever worker is free. A helper gives its slot back
// (engine.ReturnHelpers) as soon as it finds no job left, so that the
// crews of the jobs still running can take it.
//
// Every worker but the caller runs job unless hire is non-nil: then it
// calls hire first and runs the job function hire returns; a worker
// whose hire returns nil takes none, and the rest of the crew, the
// caller at least, runs them all.
//
// The first job to fail stops the handing out; every job below it has
// been handed out already and runs to its end, so crew returns the
// error of the lowest-index job that fails, whatever the crew. Every
// worker has returned, and every helper is back in the budget, when
// crew returns.
func crew(n, workers int, job func(i int) error, hire func() func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64 // the last job handed out; job 0 is the caller's
	var failed atomic.Bool
	do := func(job func(int) error, i int) {
		if errs[i] = job(i); errs[i] != nil {
			failed.Store(true)
		}
	}
	work := func(job func(int) error) {
		for !failed.Load() {
			i := int(next.Add(1))
			if i >= n {
				return
			}
			do(job, i)
		}
	}
	others := workers - 1 + engine.TakeHelpers(n-workers)
	var wg sync.WaitGroup
	wg.Add(others)
	for w := range others {
		go func() {
			defer wg.Done()
			if w >= workers-1 {
				defer engine.ReturnHelpers(1)
			}
			job := job
			if hire != nil {
				if job = hire(); job == nil {
					return
				}
			}
			work(job)
		}()
	}
	do(job, 0)
	work(job)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
