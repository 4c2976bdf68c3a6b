package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// This file is the shared enumeration engine behind every solver in the
// package: a branch-and-bound subset-DFS over the candidate list Q(D) with
// incremental per-node evaluation (dfsPath), factored so that the serial
// entry point (Problem.enumerateValidPath) and the parallel one
// (Problem.runParallel) walk byte-for-byte the same tree. The parallel
// scheduler splits the DFS forest at the first level — one subtree per
// smallest candidate index — and distributes subtrees over a worker pool,
// with cooperative cancellation so an early answer (a witness, the k-th
// valid package) or a context cancellation stops all workers.
//
// Pruning happens at two independent gates, both driven by the per-solve
// strategy (bounds.go): a subtree is cut when the cost lower bound of every
// extension exceeds the budget (generalising the monotone-cost check to any
// aggregator with a Bounder), or when the val upper bound of every
// extension falls below the live search floor — the k-th best rating so
// far, an RPP selection's minimum, or a counting/feasibility threshold.
// Both cuts are answer-preserving by construction, so the bound-driven
// engine returns results identical to the exhaustive one.

// dfsPath is the mutable state of one depth-first walk: the ids of the
// candidates on the current path (ascending, so the path is in canonical
// tuple order), the incrementally maintained package key, and incremental
// cost/val aggregator state. The key is built from the problem's key table
// (Problem.candKeys), computed once per candidate at Prepare, so a push
// appends precomputed bytes instead of formatting a tuple. Candidates are
// pushed in canonical tuple order (Candidates sorts the list), so
// materialised packages need no re-sorting and the steppers fold
// floating-point operations in exactly the order a full Eval would —
// per-node cost/val drop from O(|N|) recomputes to O(1) without changing a
// single bit of output.
//
// A node's Package is materialised only on demand (pkg): for the Prune
// hint, a compatibility check, an aggregator without a stepper, or a
// solver that keeps the package. Counting and feasibility walks therefore
// visit every node without allocating. A dfsPath belongs to one goroutine.
type dfsPath struct {
	cands   []relation.Tuple
	keys    []string
	ids     []int
	keyBuf  []byte
	costAgg Aggregator
	valAgg  Aggregator
	costSt  Stepper // nil → recompute via costAgg.Eval
	valSt   Stepper // nil → recompute via valAgg.Eval
	// built is the package materialised at the current node when
	// hasBuilt is set; push and pop clear the flag.
	built    Package
	hasBuilt bool
}

func newDFSPath(p *Problem) *dfsPath {
	return &dfsPath{
		cands: p.candList, keys: p.candKeys,
		costAgg: p.Cost, valAgg: p.Val,
		costSt: p.Cost.NewStepper(), valSt: p.Val.NewStepper(),
	}
}

// push extends the path by candidate id (which must exceed every id on
// the path).
func (d *dfsPath) push(id int) {
	d.ids = append(d.ids, id)
	d.keyBuf = append(d.keyBuf, d.keys[id]...)
	d.keyBuf = append(d.keyBuf, ';')
	d.hasBuilt = false
	if d.costSt != nil {
		d.costSt.Push(d.cands[id])
	}
	if d.valSt != nil {
		d.valSt.Push(d.cands[id])
	}
}

// pop removes the most recently pushed candidate.
func (d *dfsPath) pop() {
	n := len(d.ids) - 1
	d.keyBuf = d.keyBuf[:len(d.keyBuf)-len(d.keys[d.ids[n]])-1]
	d.ids = d.ids[:n]
	d.hasBuilt = false
	if d.costSt != nil {
		d.costSt.Pop()
	}
	if d.valSt != nil {
		d.valSt.Pop()
	}
}

func (d *dfsPath) len() int { return len(d.ids) }

// pkg materialises the current path as a Package, once per node. The path
// is already in canonical order with the key precomputed, so this is a
// plain copy — NewPackage's sort and dedup are skipped.
func (d *dfsPath) pkg() Package {
	if !d.hasBuilt {
		ts := make([]relation.Tuple, len(d.ids))
		for i, id := range d.ids {
			ts[i] = d.cands[id]
		}
		d.built = Package{tuples: ts, key: string(d.keyBuf)}
		d.hasBuilt = true
	}
	return d.built
}

// cost returns the cost of the current path, materialising the package
// only when the aggregator has no stepper.
func (d *dfsPath) cost() float64 {
	if d.costSt != nil {
		return d.costSt.Value()
	}
	return d.costAgg.Eval(d.pkg())
}

// val is cost's val counterpart.
func (d *dfsPath) val() float64 {
	if d.valSt != nil {
		return d.valSt.Value()
	}
	return d.valAgg.Eval(d.pkg())
}

// stepPair bundles nil-guarded cost/val steppers for walks that cannot use
// a full dfsPath because their push order is not canonical — the oracle
// walk of existsValidAboveExt seeds it with a base package and then pushes
// candidates around it. Unlike dfsPath it materialises no packages; cost
// and val fall back to a full Eval of the supplied package when the
// aggregator has no stepper.
type stepPair struct {
	costAgg Aggregator
	valAgg  Aggregator
	costSt  Stepper
	valSt   Stepper
}

func newStepPair(p *Problem, seed Package) stepPair {
	s := stepPair{
		costAgg: p.Cost, valAgg: p.Val,
		costSt: p.Cost.NewStepper(), valSt: p.Val.NewStepper(),
	}
	for _, t := range seed.Tuples() {
		s.push(t)
	}
	return s
}

func (s stepPair) push(t relation.Tuple) {
	if s.costSt != nil {
		s.costSt.Push(t)
	}
	if s.valSt != nil {
		s.valSt.Push(t)
	}
}

func (s stepPair) pop() {
	if s.costSt != nil {
		s.costSt.Pop()
	}
	if s.valSt != nil {
		s.valSt.Pop()
	}
}

func (s stepPair) cost(pkg Package) float64 {
	if s.costSt != nil {
		return s.costSt.Value()
	}
	return s.costAgg.Eval(pkg)
}

func (s stepPair) val(pkg Package) float64 {
	if s.valSt != nil {
		return s.valSt.Value()
	}
	return s.valAgg.Eval(pkg)
}

// EngineCounters accumulates engine-side cost accounting for a solve: DFS
// nodes visited and valid packages yielded. Attach one to Problem.Counters
// to have every walk — serial or parallel — flush its tallies here; the
// fields are atomics, so one counter set can be shared across workers and
// read concurrently (the serving layer surfaces them in its stats). Workers
// tally locally and flush once per subtree, so the accounting adds no
// per-node synchronisation.
type EngineCounters struct {
	// Nodes is the number of DFS nodes visited (packages considered).
	Nodes atomic.Int64
	// Yielded is the number of valid packages passed to a solver's yield.
	Yielded atomic.Int64
	// Pruned is the number of subtrees cut by the bound layer (cost lower
	// bound over budget, or val upper bound under the search floor). Each
	// cut skips every node below the current one, so a small Pruned count
	// can stand for an arbitrarily large saving in Nodes.
	Pruned atomic.Int64
	// BoundEvals is the number of bound evaluations performed; the pruning
	// overhead is BoundEvals O(1) table lookups per solve.
	BoundEvals atomic.Int64
	// Prepares counts candidate-list evaluations: how many times a Problem
	// actually ran its selection query and rebuilt the memoised state that
	// Prepare warms (bound tables included). The serving layer carries
	// prepared problems across collection deltas, so a warm server's
	// Prepares should grow only for specs whose relations actually mutated.
	Prepares atomic.Int64
	// SessionResumes counts feasibility probes a SolveSession answered from
	// its memo instead of walking the enumeration forest again — the reuse
	// the relaxation and adjustment searches get from probing many problem
	// variants that share a candidate list (see SolveSession).
	SessionResumes atomic.Int64
	// SessionNodesSaved accumulates, per resumed probe, the DFS nodes the
	// probe's original walk visited — the work each resume skipped. Together
	// with Nodes it bounds what the same probe sequence would have cost
	// without the session.
	SessionNodesSaved atomic.Int64
}

// AddTo adds c's tallies into dst (both may be shared; fields are
// atomics). It is the flush half of per-solve accounting: give a solve a
// private counter set (Problem.WithCounters), read its tallies when the
// solve returns, then AddTo the shared totals — the serving layer's cost
// model learns per-spec solve cost exactly this way.
func (c *EngineCounters) AddTo(dst *EngineCounters) { c.addTo(dst) }

// addTo adds c's tallies into dst (both may be shared; fields are atomics).
func (c *EngineCounters) addTo(dst *EngineCounters) {
	if dst == nil {
		return
	}
	dst.Nodes.Add(c.Nodes.Load())
	dst.Yielded.Add(c.Yielded.Load())
	dst.Pruned.Add(c.Pruned.Load())
	dst.BoundEvals.Add(c.BoundEvals.Load())
	dst.Prepares.Add(c.Prepares.Load())
	dst.SessionResumes.Add(c.SessionResumes.Load())
	dst.SessionNodesSaved.Add(c.SessionNodesSaved.Load())
}

// pathYield receives each valid package as the path's current node: val
// gives its rating in O(1), keyBuf its canonical key, and pkg materialises
// it for a solver that keeps it. Returning false stops the enumeration (in
// the parallel engine: all workers).
type pathYield func(path *dfsPath) (bool, error)

// walkSubtree enumerates the valid packages whose smallest candidate index
// is root, in canonical DFS order, mirroring the validity and pruning rules
// of EnumerateValid: the Prune hint cuts hereditarily-invalid branches,
// over-budget packages are skipped (and their supersets too when cost is
// monotone), and compatible within-budget packages are yielded. On top of
// those, the strategy's bound gates cut subtrees that provably hold no
// answer-relevant package (see bounds.go). stop is the engine-wide
// cancellation flag; path must be empty on entry and is empty again on
// return.
func (p *Problem) walkSubtree(path *dfsPath, root, maxSize int, st strategy, yield pathYield, stop *atomic.Bool) (bool, error) {
	n := len(p.candList)
	var nodes, yields, prunes, boundEvals int64
	if p.Counters != nil {
		defer func() {
			p.Counters.Nodes.Add(nodes)
			p.Counters.Yielded.Add(yields)
			p.Counters.Pruned.Add(prunes)
			p.Counters.BoundEvals.Add(boundEvals)
		}()
	}
	bounded := st.active()
	// cutBelow reports whether the subtree below the current node — every
	// strict extension drawing from p.candList[next:], at most rem more
	// tuples — can be skipped. Called only when children exist (next < n
	// and the path is below maxSize), after the node itself has been
	// handled.
	cutBelow := func(next int) bool {
		var cost, val float64
		if st.costLB != nil {
			cost = path.cost()
		}
		if st.floor != nil {
			val = path.val()
		}
		return st.cutBelow(cost, val, path.len(), next, maxSize-path.len(), p.Budget, &boundEvals, &prunes)
	}
	visit := func() (descend, cont bool, err error) {
		nodes++
		if p.Prune != nil && p.Prune(path.pkg()) {
			return false, true, nil
		}
		if path.cost() <= p.Budget {
			ok := true
			if p.Qc != nil || p.CompatFn != nil {
				var err error
				if ok, err = p.Compatible(path.pkg()); err != nil {
					return false, false, err
				}
			}
			if ok {
				yields++
				c, err := yield(path)
				if err != nil || !c {
					return false, c, err
				}
			}
			return true, true, nil
		}
		if p.Cost.Monotone() {
			// Supersets can only cost more: skip the whole branch.
			return false, true, nil
		}
		return true, true, nil
	}
	var walk func(start int) (bool, error)
	walk = func(start int) (bool, error) {
		if path.len() >= maxSize {
			return true, nil
		}
		for i := start; i < n; i++ {
			if stop.Load() {
				return false, nil
			}
			path.push(i)
			descend, cont, err := visit()
			if err == nil && cont && descend &&
				!(bounded && i+1 < n && path.len() < maxSize && cutBelow(i+1)) {
				cont, err = walk(i + 1)
			}
			path.pop()
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	if stop.Load() {
		return false, nil
	}
	path.push(root)
	defer path.pop()
	descend, cont, err := visit()
	if err != nil || !cont {
		return cont, err
	}
	if descend && !(bounded && root+1 < n && path.len() < maxSize && cutBelow(root+1)) {
		return walk(root + 1)
	}
	return true, nil
}

// enumerateValidPath is the serial engine entry point without a val floor:
// it enumerates every valid non-empty package in canonical DFS order with
// incremental cost/val evaluation and cost-bound pruning, materialising
// each one. EnumerateValid is built on it; solvers with a rating threshold
// use enumerateValidFloor.
func (p *Problem) enumerateValidPath(yield func(pkg Package, path *dfsPath) (bool, error)) error {
	return p.enumerateValidFloor(nil, func(path *dfsPath) (bool, error) {
		return yield(path.pkg(), path)
	})
}

// enumerateValidFloor is enumerateValidPath with a live val floor: subtrees
// whose optimistic val bound cannot reach the floor are cut, which is
// answer-preserving exactly when the caller ignores (or never sees) valid
// packages rated below the floor.
func (p *Problem) enumerateValidFloor(floor *searchFloor, yield pathYield) error {
	if _, err := p.Candidates(); err != nil {
		return err
	}
	ms, err := p.maxSize()
	if err != nil {
		return err
	}
	if ms < 1 {
		return nil
	}
	st := p.newStrategy(floor)
	path := newDFSPath(p)
	var stop atomic.Bool
	for root := range p.candList {
		cont, err := p.walkSubtree(path, root, ms, st, yield, &stop)
		if err != nil || !cont {
			return err
		}
	}
	return nil
}

// normWorkers resolves the worker-count convention shared by all parallel
// solvers: non-positive means GOMAXPROCS.
func normWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// runParallel is the shared root-splitting scheduler. The DFS forest is
// split at the first level and the subtree roots distributed over workers
// through a channel buffered to the full candidate list, so the feed never
// blocks even when every worker bails out early. Each worker walks its
// subtrees with a private dfsPath (steppers are single-goroutine) and its
// own yield from makeYield; a yield returning false, an error, or a context
// cancellation sets the stop flag, which all walks poll per node.
//
// makeYield(w) is called once per worker w ∈ [0, workers); yields on
// distinct workers run concurrently, so they must only touch per-worker or
// synchronised state. The Problem's aggregators, queries and hints must be
// safe for concurrent reads — all stock constructors are. Workers is
// normalised via normWorkers by the public wrappers before the call.
//
// floor, when non-nil, is the shared pruning floor: bounders are read-only
// and the floor is atomic, so one strategy value serves all workers, and a
// raise by any worker (e.g. FindTopKParallel publishing a full local top-k
// buffer's k-th rating) immediately tightens every other worker's cuts.
func (p *Problem) runParallel(ctx context.Context, workers int, floor *searchFloor, makeYield func(w int) pathYield) error {
	return p.runParallelShard(ctx, workers, floor, ShardSpec{}, makeYield)
}

// runParallelShard is runParallel restricted to a candidate-space shard:
// only subtree roots the shard owns are fed to the workers, so the walk
// covers exactly the packages whose smallest candidate index falls in the
// shard. Every package belongs to exactly one root subtree, so disjoint
// shards partition the package space and their per-shard results merge
// without overlap — the decomposition the distributed coordinator fans out
// across nodes. The zero ShardSpec owns every root, reproducing runParallel.
func (p *Problem) runParallelShard(ctx context.Context, workers int, floor *searchFloor, shard ShardSpec, makeYield func(w int) pathYield) error {
	if _, err := p.Candidates(); err != nil {
		return err
	}
	ms, err := p.maxSize()
	if err != nil {
		return err
	}
	if ms < 1 || len(p.candList) == 0 {
		return ctx.Err()
	}
	st := p.newStrategy(floor)
	roots := make(chan int, len(p.candList))
	for i := range p.candList {
		if shard.owns(i) {
			roots <- i
		}
	}
	close(roots)

	var stop atomic.Bool
	finished := make(chan struct{})
	defer close(finished)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				stop.Store(true)
			case <-finished:
			}
		}()
	}

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			yield := makeYield(w)
			path := newDFSPath(p)
			for root := range roots {
				if stop.Load() {
					return
				}
				cont, err := p.walkSubtree(path, root, ms, st, yield, &stop)
				if err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
				if !cont {
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return ctx.Err()
}
