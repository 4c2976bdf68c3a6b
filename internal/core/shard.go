package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// This file is the candidate-space sharding layer: the root-splitting
// engine already decomposes a solve into one independent subtree per
// smallest candidate index, and a ShardSpec assigns each root to exactly
// one of Count disjoint shards. A shard solver walks only its own roots
// and returns a *partial* result — a scored top-k contribution, a count,
// a capped feasibility count — together with the search floor it finished
// at; the exported Merge helpers combine the partials into exactly the
// answer a single whole-space solve produces, bit for bit. That is the
// merge a distributed coordinator needs: fan the shards out to different
// nodes, merge the partials at the router (internal/cluster), and the
// fleet answer is indistinguishable from a single node's.
//
// Bit-identity rests on three invariants the engine already maintains:
// every package is enumerated by exactly one root subtree (so shard
// results never overlap and counts sum exactly); ratings are folded in
// canonical tuple order by the incremental steppers regardless of which
// worker or shard walks the package (so a package's val is the same
// float64 everywhere); and the top-k order (worseScored: descending val,
// ties by ascending canonical package key) is a strict total order on
// distinct packages (so the merged selection is unique).

// ShardSpec names one candidate-space shard: subtree roots r with
// r % Count == Index. Roots are interleaved rather than split into
// contiguous ranges because subtree size falls steeply with the root
// index (root 0 dominates), and interleaving spreads the heavy low
// roots evenly across shards. The zero value (Count 0) — and any Count
// ≤ 1 — means the whole space.
type ShardSpec struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Validate checks the spec names a well-formed shard.
func (s ShardSpec) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("core: shard count %d < 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("core: shard index %d out of range [0, %d)", s.Index, s.Count)
	}
	return nil
}

// owns reports whether the shard owns subtree root r.
func (s ShardSpec) owns(r int) bool {
	return s.Count <= 1 || r%s.Count == s.Index
}

// ScoredPackage pairs a package with the rating the engine computed for
// it — the exported face of the internal scored buffers, carried inside
// shard partials so merges reuse engine ratings instead of re-evaluating.
type ScoredPackage struct {
	Pkg Package
	Val float64
}

// TopKPartial is one shard's contribution to a top-k search: its best
// min(k, shard population) packages in rank order, scored, plus the
// pruning floor the shard finished at. The floor is the value below which
// this shard provably holds nothing further (its workers cut everything
// strictly below it after buffering k better-rated packages); a
// coordinator can seed another shard's FloorHint with it, and it
// documents how much of the shard the bound layer skipped.
type TopKPartial struct {
	Scored []ScoredPackage
	Floor  float64 // -Inf when the shard never filled a k-buffer
}

// FindTopKShardCtx runs the FRP top-k search over one candidate-space
// shard and returns the shard's partial. floorHint seeds the shared
// pruning floor: the caller asserts that k packages rated at least
// floorHint exist globally (e.g. another shard's full partial proves it),
// so packages rated strictly below cannot enter the merged selection and
// the shard may skip them. Pass math.Inf(-1) for no hint. The partial's
// Scored holds every package of this shard that can appear in the merged
// global top-k, in rank order.
func (p *Problem) FindTopKShardCtx(ctx context.Context, shard ShardSpec, floorHint float64, workers int) (TopKPartial, error) {
	if err := shard.Validate(); err != nil {
		return TopKPartial{}, err
	}
	workers = normWorkers(workers)
	bufs := make([]topkBuf, workers)
	floor := newFloor(floorHint, false)
	err := p.runParallelShard(ctx, workers, floor, shard, func(w int) pathYield {
		bufs[w].k = p.K
		return func(path *dfsPath) (bool, error) {
			bufs[w].offer(path, floor)
			return true, nil
		}
	})
	if err != nil {
		return TopKPartial{}, err
	}
	var all []scoredPkg
	for i := range bufs {
		all = append(all, bufs[i].best...)
	}
	sort.Slice(all, func(i, j int) bool { return worseScored(all[j], all[i]) })
	if len(all) > p.K {
		all = all[:p.K]
	}
	out := TopKPartial{Floor: floor.value(), Scored: make([]ScoredPackage, len(all))}
	for i, s := range all {
		out.Scored[i] = ScoredPackage{Pkg: s.pkg, Val: s.val}
	}
	return out, nil
}

// CountValidShardCtx runs the CPP count over one candidate-space shard:
// the number of the shard's valid packages rated at least bound. Shards
// partition the package space, so the whole-space count is exactly the
// sum of the per-shard counts (MergeCountPartials).
func (p *Problem) CountValidShardCtx(ctx context.Context, bound float64, shard ShardSpec, workers int) (int64, error) {
	if err := shard.Validate(); err != nil {
		return 0, err
	}
	workers = normWorkers(workers)
	counts := make([]paddedCount, workers)
	err := p.runParallelShard(ctx, workers, newFloor(bound, false), shard, func(w int) pathYield {
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

// ExistsCountShardCtx runs the ∃k-valid feasibility check over one
// candidate-space shard, capped: it returns min(k, the shard's number of
// valid packages rated at least bound), cancelling the walk as soon as
// the cap is reached — a shard holding k qualifying packages alone
// already decides the global question. The global answer is
// MergeExistsPartials: the capped counts sum to at least k iff k
// qualifying packages exist in the whole space.
func (p *Problem) ExistsCountShardCtx(ctx context.Context, k int, bound float64, shard ShardSpec, workers int) (int64, error) {
	if err := shard.Validate(); err != nil {
		return 0, err
	}
	if k <= 0 {
		return 0, nil
	}
	var found atomic.Int64
	err := p.runParallelShard(ctx, normWorkers(workers), newFloor(bound, false), shard, func(int) pathYield {
		return func(path *dfsPath) (bool, error) {
			if path.val() >= bound && found.Add(1) >= int64(k) {
				return false, nil // the cap cancels all workers
			}
			return true, nil
		}
	})
	if err != nil {
		return 0, err
	}
	if n := found.Load(); n < int64(k) {
		return n, nil
	}
	return int64(k), nil
}

// WorseScoredKeyed is the engine's deterministic top-k order on
// (rating, canonical package key) pairs: a ranks strictly below b under
// descending rating with ties broken by ascending key. Exported so
// coordinators merging wire-level partials (which carry vals and can
// rebuild keys via NewPackage, but never touch scored buffers) reproduce
// exactly the order the engine's own merge uses.
func WorseScoredKeyed(aVal float64, aKey string, bVal float64, bKey string) bool {
	return worseScored(scoredPkg{pkg: Package{key: aKey}, val: aVal},
		scoredPkg{pkg: Package{key: bKey}, val: bVal})
}

// MergeTopKPartials merges per-shard top-k partials into the whole-space
// scored selection: concatenate, sort under the deterministic order, take
// k. ok is false when the union holds fewer than k packages — with
// hint-free partials that means fewer than k valid packages exist
// globally, the same condition the single-node search reports. The
// result is bit-identical to the single-node scored top-k when the
// partials cover all Count shards exactly once.
func MergeTopKPartials(k int, parts []TopKPartial) (scored []ScoredPackage, ok bool) {
	var all []ScoredPackage
	for _, p := range parts {
		all = append(all, p.Scored...)
	}
	sort.Slice(all, func(i, j int) bool {
		return WorseScoredKeyed(all[j].Val, all[j].Pkg.Key(), all[i].Val, all[i].Pkg.Key())
	})
	if len(all) < k {
		return nil, false
	}
	return all[:k], true
}

// MergeCountPartials sums per-shard counts — exact, because shards
// partition the package space.
func MergeCountPartials(parts []int64) int64 {
	var total int64
	for _, n := range parts {
		total += n
	}
	return total
}

// MergeExistsPartials decides ∃k-valid from per-shard capped counts
// (ExistsCountShardCtx): the qualifying packages number at least k iff
// the capped counts sum to at least k. k ≤ 0 is vacuously true, matching
// ExistsKValid.
func MergeExistsPartials(k int, parts []int64) bool {
	if k <= 0 {
		return true
	}
	var total int64
	for _, n := range parts {
		total += n
	}
	return total >= int64(k)
}

// MergeMaxBoundPartials computes the MBP maximum bound from per-shard
// top-k partials: the minimum rating of the merged selection, exactly as
// MaxBound reads it off the single-node scored top-k. ok is false when no
// top-k selection exists.
func MergeMaxBoundPartials(k int, parts []TopKPartial) (bound float64, ok bool) {
	merged, ok := MergeTopKPartials(k, parts)
	if !ok {
		return 0, false
	}
	bound = math.Inf(1)
	for _, s := range merged {
		bound = math.Min(bound, s.Val)
	}
	return bound, true
}
