package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/platform"
)

// BatchOptions tunes the parallel sweep runner.
type BatchOptions struct {
	// Workers is the pool size; ≤ 0 means GOMAXPROCS.
	Workers int
}

// Batch solves every instance with the solver on a shared worker pool
// and returns results in input order: results[i] always corresponds to
// instances[i], whatever the completion interleaving, so a parallel
// sweep is a drop-in replacement for the serial loop. The first solver
// error (lowest instance index) aborts the sweep; cancelling ctx stops
// workers from picking up new instances and returns ctx.Err().
func Batch(ctx context.Context, s *Solver, instances []*platform.Instance, opts BatchOptions) ([]Result, error) {
	results := make([]Result, len(instances))
	err := ForEach(ctx, len(instances), opts.Workers, func(ctx context.Context, i int) error {
		res, err := s.Solve(ctx, instances[i])
		if err != nil {
			return fmt.Errorf("engine: instance %d: %w", i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// BatchByName is Batch with the solver resolved from the Default
// registry.
func BatchByName(ctx context.Context, solver string, instances []*platform.Instance, opts BatchOptions) ([]Result, error) {
	s, err := Get(solver)
	if err != nil {
		return nil, err
	}
	return Batch(ctx, s, instances, opts)
}

// ForEach runs fn(ctx, i) for i in [0, n) on a worker pool. It is the
// engine's generic sweep primitive: Batch, the Figure 7 grid and the
// Figure 19 repetition loops all run through it. Guarantees:
//
//   - workers ≤ max(1, min(workers, n)), defaulting to GOMAXPROCS;
//   - indexes are claimed in order, so early indexes start first and
//     callers can fill index-addressed slices with no further locking;
//   - a fn error stops workers from claiming further indexes, while
//     every index already claimed runs to completion on an uncancelled
//     context — claims are in order, so all indexes below a failure
//     finish and the lowest failing index wins deterministically;
//   - cancelling ctx stops workers before their next claim and ForEach
//     returns ctx.Err().
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				if err := fn(ctx, i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
