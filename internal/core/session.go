package core

import (
	"context"
	"strings"
	"sync/atomic"
)

// This file extracts the reusable half of a feasibility solve out of
// Problem. The relaxation and adjustment searches (Sections 7 and 8) both
// probe a long sequence of problem variants — the same (Qc, cost, val, C,
// k, B) frame with the selection query or the database swapped per gap
// assignment or per candidate adjustment — and each probe asks the same
// question: do k distinct valid packages rated at least B exist? A
// SolveSession holds what successive probes can share: the static search
// floor the bound layer prunes against, and a memo of probe outcomes keyed
// by the variant's prepared candidate list, so a variant whose candidates
// an earlier probe already walked resumes from the recorded verdict instead
// of restarting the subset-DFS. Many lattice neighbours really do collide —
// a relaxation level that only admits tuples the query's other conjuncts
// reject leaves Q(D) unchanged — which is where the engine's node counts
// drop (EngineCounters.SessionResumes / SessionNodesSaved account for it).

// SolveSession shares state across a sequence of ∃k-valid feasibility
// probes over variants of one problem frame. The zero value is not usable;
// construct with NewSolveSession. A session is not safe for concurrent use
// (probes inside one search run sequentially); each probe may itself run on
// the parallel engine via ProbeParallel.
type SolveSession struct {
	// K and Bound fix the feasibility question all probes ask: k distinct
	// valid packages rated at least Bound.
	K     int
	Bound float64

	// floor is the shared static pruning floor (val upper bounds below it
	// cut subtrees). It equals Bound for every probe — variants are rated
	// on the same scale — so sharing it is answer-preserving by the same
	// argument as ExistsKValid's per-call floor.
	floor *searchFloor
	memo  map[string]probeRecord
}

// probeRecord is one memoised probe outcome together with the DFS nodes
// its original walk visited (what a resume saves).
type probeRecord struct {
	ok      bool
	witness *Package
	nodes   int64
}

// NewSolveSession builds a session for the feasibility question
// (k, bound): do k distinct valid packages rated at least bound exist?
func NewSolveSession(k int, bound float64) *SolveSession {
	return &SolveSession{
		K:     k,
		Bound: bound,
		floor: newFloor(bound, false),
		memo:  make(map[string]probeRecord),
	}
}

// Probe answers the session's feasibility question for one problem variant
// with the serial engine, in canonical DFS order — the walk is identical to
// Problem.ExistsKValid, so a sequence of Probe calls returns exactly what a
// sequence of fresh ExistsKValid calls would. On success the returned
// witness is the first qualifying package in canonical order.
//
// salt distinguishes variants whose feasibility depends on state beyond the
// candidate list: pass "" when only the selection query varies (the database
// and every other field are shared, so equal candidate lists imply equal
// verdicts), and a variant identity — e.g. the adjustment delta — when the
// database itself differs and a compatibility query or CompatFn could read
// the part that changed.
func (s *SolveSession) Probe(variant *Problem, salt string) (bool, *Package, error) {
	return s.probe(variant, salt, func(v *Problem) (bool, *Package, error) {
		found := 0
		var wit *Package
		err := v.enumerateValidFloor(s.floor, func(path *dfsPath) (bool, error) {
			if path.val() >= s.Bound {
				if wit == nil {
					p := path.pkg()
					wit = &p
				}
				found++
				if found >= s.K {
					return false, nil
				}
			}
			return true, nil
		})
		if err != nil || found < s.K {
			return false, nil, err
		}
		return true, wit, nil
	})
}

// ProbeParallel is Probe on the root-splitting parallel engine (workers ≤ 0
// means GOMAXPROCS) with cooperative cancellation — the walk and verdict
// mirror Problem.ExistsKValidParallelCtx. The verdict is deterministic;
// which qualifying package is returned as the witness depends on worker
// timing (any of them proves feasibility, the RPP witness precedent), and a
// later resume of the same probe repeats the recorded one.
func (s *SolveSession) ProbeParallel(ctx context.Context, variant *Problem, salt string, workers int) (bool, *Package, error) {
	return s.probe(variant, salt, func(v *Problem) (bool, *Package, error) {
		w := normWorkers(workers)
		var found atomic.Int64
		wits := make([]*Package, w)
		err := v.runParallel(ctx, w, s.floor, func(wi int) pathYield {
			return func(path *dfsPath) (bool, error) {
				if path.val() >= s.Bound {
					if wits[wi] == nil {
						p := path.pkg()
						wits[wi] = &p
					}
					if found.Add(1) >= int64(s.K) {
						return false, nil // the k-th hit cancels all workers
					}
				}
				return true, nil
			}
		})
		if err != nil || found.Load() < int64(s.K) {
			return false, nil, err
		}
		for _, wit := range wits {
			if wit != nil {
				return true, wit, nil
			}
		}
		return true, nil, nil
	})
}

// probe runs one feasibility probe through the memo. The variant's counters
// are swapped for a private set during the probe so the probe's own node
// count can be recorded (and credited to resumes later); the private
// tallies are folded back into the variant's counters afterwards.
//
// A probe reads a verdict, never lineage, so a variant whose candidates are
// not yet built has TrackProvenance cleared and evaluates its selection
// query untraced — variants copied from a provenance-tracking problem
// would otherwise trace and index lineage only to discard it.
func (s *SolveSession) probe(variant *Problem, salt string, run func(*Problem) (bool, *Package, error)) (bool, *Package, error) {
	if s.K <= 0 {
		return true, nil, nil // vacuously feasible, as in ExistsKValid
	}
	if variant.candidates == nil {
		variant.TrackProvenance = false
	}
	orig := variant.Counters
	priv := &EngineCounters{}
	variant.Counters = priv
	defer func() {
		variant.Counters = orig
		priv.addTo(orig)
	}()
	if _, err := variant.Candidates(); err != nil {
		return false, nil, err
	}
	key := s.memoKey(variant, salt)
	if rec, hit := s.memo[key]; hit {
		priv.SessionResumes.Add(1)
		priv.SessionNodesSaved.Add(rec.nodes)
		return rec.ok, rec.witness, nil
	}
	if len(variant.candList) == 0 {
		// No candidates: with k ≥ 1 the probe is trivially infeasible and
		// both engines would walk zero roots — record the empty walk.
		s.memo[key] = probeRecord{}
		return false, nil, nil
	}
	ok, wit, err := run(variant)
	if err != nil {
		return false, nil, err
	}
	s.memo[key] = probeRecord{ok: ok, witness: wit, nodes: priv.Nodes.Load()}
	return ok, wit, nil
}

// memoKey builds the probe memo key: the caller's salt plus the prepared
// candidate list's content fingerprint (canonical tuple keys in canonical
// order). Equal keys mean the probes enumerate the same forest under the
// same validity rules, so the recorded verdict transfers.
func (s *SolveSession) memoKey(variant *Problem, salt string) string {
	var b strings.Builder
	b.WriteString(salt)
	for _, k := range variant.candKeys {
		b.WriteByte('\x1e')
		b.WriteString(k)
	}
	return b.String()
}
