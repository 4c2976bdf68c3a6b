package main

import (
	"fmt"
	"math/rand"

	"repro/internal/experiments"
)

// workload is one traffic mix. Every workload samples its pool with
// experiments.SampleWorkload over the default six-op mix
// (experiments.WorkloadOps) on an experiments.WorkloadDB catalog; they
// differ in catalog size, cache behaviour, batching and writes.
type workload struct {
	name string
	// nPOI sizes the catalog (points of interest in the travel database).
	nPOI int
	// batch is the number of items per solve call: 1 sends POST
	// /v1/solve, more send POST /v1/batch.
	batch int
	// noCache makes every request bypass the daemon's result cache.
	noCache bool
	// repeat is the offered repeat ratio: the probability that an item
	// repeats an already issued one. Zero replays shuffled passes over
	// the whole pool.
	repeat float64
	// deltaEvery is the number of items between two delta installs.
	deltaEvery int
	// deltaOnCatalog makes the installs mutate the collection the reads
	// query (experiments.RepairChurnDelta, so every repair tier fires).
	// Otherwise they mutate a side collection no read touches, which
	// measures a bare install next to the read traffic without changing
	// what the reads find in the cache.
	deltaOnCatalog bool
	// warmPool makes set-up solve every pool item once; otherwise set-up
	// replays the first warmItems items of the stream.
	warmPool  bool
	warmItems int
}

// poolSize is the number of distinct items a workload samples: every
// problem variant of every default op, so the pool is the same set of
// requests for every seed and the seed only orders it.
var poolSize = experiments.WorkloadVariants * len(experiments.WorkloadOps)

// workloads are the benchmark's traffic mixes, by name.
var workloads = map[string]workload{
	// All cache hits: the full pool fits the default 1024-entry result
	// cache and set-up solves each item once, so the timed phase runs
	// the HTTP layer, spec canonicalization and the cache probe, and
	// no engine search.
	"warm-hit": {name: "warm-hit", nPOI: 60, batch: 1, deltaEvery: 256, warmPool: true},
	// No cache: every request carries noCache, so each one searches a
	// prepared problem (warmed in set-up) on the 640-POI catalog.
	"cold-mix": {name: "cold-mix", nPOI: 640, batch: 1, noCache: true, deltaEvery: 64, warmPool: true},
	// Reads beside writes: batches of 16 with offered repeat ratio 0.9,
	// and a repair-churn delta on the queried relation every 32 items.
	"poi-churn": {name: "poi-churn", nPOI: 160, batch: 16, repeat: 0.9, deltaEvery: 32,
		deltaOnCatalog: true, warmItems: 1024},
}

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"warm-hit", "cold-mix", "poi-churn"}

// streamLen is the length of the replayed item stream; a run that gets
// further wraps around to its start.
const streamLen = 1 << 17

// makeStream draws the replayed sequence of pool indices. With repeat 0
// it concatenates seeded permutations of the pool. Otherwise each item
// repeats, with probability repeat, a pool item drawn uniformly from
// those already issued, and takes the next fresh pool item (cycling)
// otherwise. Drawing repeats from the distinct items issued, not from the
// stream so far, keeps early items from becoming ever more popular, which
// would make the traffic mix differ from seed to seed.
func makeStream(rng *rand.Rand, pool, n int, repeat float64) []int32 {
	stream := make([]int32, 0, n)
	if repeat == 0 {
		for len(stream) < n {
			for _, i := range rng.Perm(pool) {
				stream = append(stream, int32(i))
			}
		}
		return stream[:n]
	}
	next := 0
	for len(stream) < n {
		if next > 0 && rng.Float64() < repeat {
			stream = append(stream, int32(rng.Intn(min(next, pool))))
			continue
		}
		stream = append(stream, int32(next%pool))
		next++
	}
	return stream
}

// schedule maps the closed loop's operation counter to work: rounds of
// deltaEvery/batch solve calls followed by one delta install.
type schedule struct {
	batch, callsPerRound int
}

func newSchedule(w workload) (schedule, error) {
	if w.batch < 1 || w.deltaEvery < w.batch || w.deltaEvery%w.batch != 0 {
		return schedule{}, fmt.Errorf("workload %s: deltaEvery %d must be a positive multiple of batch %d", w.name, w.deltaEvery, w.batch)
	}
	return schedule{batch: w.batch, callsPerRound: w.deltaEvery / w.batch}, nil
}

// op says whether operation k is a delta install and, if not, which solve
// call it is.
func (s schedule) op(k int64) (install bool, call int64) {
	round, r := k/int64(s.callsPerRound+1), k%int64(s.callsPerRound+1)
	if r == int64(s.callsPerRound) {
		return true, 0
	}
	return false, round*int64(s.callsPerRound) + r
}
