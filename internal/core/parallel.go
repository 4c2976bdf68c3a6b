package core

import (
	"context"
	"math"
	"sort"
	"sync/atomic"
)

// This file holds the public parallel solvers, all thin clients of the
// root-splitting scheduler in engine.go (Problem.runParallel). The
// subset-enumeration forest is split at the first level — one subtree per
// smallest candidate index — and the subtrees are walked concurrently, each
// worker carrying its own incremental path state. Aggregators, the
// compatibility query and the Prune hint must be safe for concurrent use —
// all stock constructors are (they close over immutable state), and Qc
// evaluation builds a private overlay per call.
//
// Every solver has a context-taking variant for early cancellation; the
// plain forms use context.Background(). Workers ≤ 0 defaults to GOMAXPROCS.

// paddedCount is a per-worker counter padded to a cache line so hot
// concurrent counting does not false-share.
type paddedCount struct {
	n int64
	_ [56]byte
}

// CountValidParallel solves CPP with the parallel engine. Counting is
// order-independent, so the result is identical to CountValid.
func (p *Problem) CountValidParallel(bound float64, workers int) (int64, error) {
	return p.CountValidParallelCtx(context.Background(), bound, workers)
}

// CountValidParallelCtx is CountValidParallel with cancellation. As in
// CountValid, B is a static pruning floor.
func (p *Problem) CountValidParallelCtx(ctx context.Context, bound float64, workers int) (int64, error) {
	workers = normWorkers(workers)
	counts := make([]paddedCount, workers)
	err := p.runParallel(ctx, workers, newFloor(bound, false), func(w int) pathYield {
		return func(path *dfsPath) (bool, error) {
			if path.val() >= bound {
				counts[w].n++
			}
			return true, nil
		}
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for i := range counts {
		total += counts[i].n
	}
	return total, nil
}

// FindTopKParallel solves FRP with the parallel engine: each worker keeps a
// private top-k buffer over its subtrees and the buffers are merged under
// FindTopK's deterministic order (descending rating, ties by ascending
// package key) once all workers finish. The order is strict and total on
// distinct packages, so the merged selection is identical to the serial
// FindTopK answer.
func (p *Problem) FindTopKParallel(workers int) (sel []Package, ok bool, err error) {
	return p.FindTopKParallelCtx(context.Background(), workers)
}

// FindTopKParallelCtx is FindTopKParallel with cancellation.
func (p *Problem) FindTopKParallelCtx(ctx context.Context, workers int) (sel []Package, ok bool, err error) {
	scored, ok, err := p.findTopKScoredParallelCtx(ctx, workers)
	if err != nil || !ok {
		return nil, ok, err
	}
	merged := topkBuf{k: p.K, best: scored}
	return merged.packages(), true, nil
}

// findTopKScoredParallelCtx is the parallel FRP core: the top-k selection
// with the ratings the workers computed incrementally. Workers share one
// pruning floor and tighten it cooperatively — whenever a worker's private
// buffer is full, its k-th rating is published as an atomic-max raise: k
// packages rated at least it exist globally, so any subtree whose val upper
// bound falls strictly below holds no member of the global top-k. Each
// buffer therefore still holds its subtrees' entire contribution to the
// global answer, and the deterministic merge reproduces the serial
// selection exactly.
func (p *Problem) findTopKScoredParallelCtx(ctx context.Context, workers int) (scored []scoredPkg, ok bool, err error) {
	workers = normWorkers(workers)
	bufs := make([]topkBuf, workers)
	floor := newFloor(math.Inf(-1), false)
	err = p.runParallel(ctx, workers, floor, func(w int) pathYield {
		bufs[w].k = p.K
		return func(path *dfsPath) (bool, error) {
			bufs[w].offer(path, floor)
			return true, nil
		}
	})
	if err != nil {
		return nil, false, err
	}
	var all []scoredPkg
	for i := range bufs {
		all = append(all, bufs[i].best...)
	}
	sort.Slice(all, func(i, j int) bool { return worseScored(all[j], all[i]) })
	if len(all) < p.K {
		return nil, false, nil
	}
	return all[:p.K], true, nil
}

// MaxBoundParallel solves the optimisation core of MBP on the parallel
// engine: the selection search runs root-split (see FindTopKParallel), then
// the bound is the minimum rating among the k members. The result is
// identical to MaxBound.
func (p *Problem) MaxBoundParallel(workers int) (bound float64, ok bool, err error) {
	return p.MaxBoundParallelCtx(context.Background(), workers)
}

// MaxBoundParallelCtx is MaxBoundParallel with cancellation. Like the
// serial MaxBound it reuses the ratings of the scored selection instead of
// re-evaluating Val over the members.
func (p *Problem) MaxBoundParallelCtx(ctx context.Context, workers int) (bound float64, ok bool, err error) {
	scored, ok, err := p.findTopKScoredParallelCtx(ctx, workers)
	if err != nil || !ok {
		return 0, false, err
	}
	return minScored(scored), true, nil
}

// DecideTopKParallel solves RPP with the parallel engine: the membership
// checks on sel run serially (they are |sel| cheap validations), then the
// condition (5) witness search fans out over the enumeration forest with
// early cancellation — the first worker to find a valid outside package
// rating above the selection's minimum stops all others. The decision is
// identical to DecideTopK's; when the answer is no with a witness, which
// witness is returned depends on worker timing (any of them proves the
// selection suboptimal).
func (p *Problem) DecideTopKParallel(sel []Package, workers int) (ok bool, witness *Package, err error) {
	return p.DecideTopKParallelCtx(context.Background(), sel, workers)
}

// DecideTopKParallelCtx is DecideTopKParallel with cancellation.
func (p *Problem) DecideTopKParallelCtx(ctx context.Context, sel []Package, workers int) (ok bool, witness *Package, err error) {
	seen, minVal, ok, err := p.checkSelection(sel)
	if err != nil || !ok {
		return false, nil, err
	}
	workers = normWorkers(workers)
	found := make([]*Package, workers)
	// As in DecideTopK, the selection minimum is a static exclusive floor.
	err = p.runParallel(ctx, workers, newFloor(minVal, true), func(w int) pathYield {
		return func(path *dfsPath) (bool, error) {
			if _, inSel := seen[string(path.keyBuf)]; inSel {
				return true, nil
			}
			if path.val() > minVal {
				pkg := path.pkg()
				found[w] = &pkg
				return false, nil
			}
			return true, nil
		}
	})
	if err != nil {
		return false, nil, err
	}
	for _, f := range found {
		if f != nil {
			return false, f, nil
		}
	}
	return true, nil, nil
}

// ExistsKValidParallel is the parallel form of ExistsKValid: workers count
// qualifying packages into a shared tally and the search cancels as soon as
// the k-th one is found anywhere in the forest.
func (p *Problem) ExistsKValidParallel(k int, bound float64, workers int) (bool, error) {
	return p.ExistsKValidParallelCtx(context.Background(), k, bound, workers)
}

// ExistsKValidParallelCtx is ExistsKValidParallel with cancellation.
func (p *Problem) ExistsKValidParallelCtx(ctx context.Context, k int, bound float64, workers int) (bool, error) {
	if k <= 0 {
		return true, nil
	}
	var found atomic.Int64
	err := p.runParallel(ctx, normWorkers(workers), newFloor(bound, false), func(int) pathYield {
		return func(path *dfsPath) (bool, error) {
			if path.val() >= bound && found.Add(1) >= int64(k) {
				return false, nil // the k-th hit cancels all workers
			}
			return true, nil
		}
	})
	if err != nil {
		return false, err
	}
	return found.Load() >= int64(k), nil
}
