package core

import (
	"fmt"
	"sort"

	"repro/internal/query"
	"repro/internal/relation"
)

// Problem bundles an instance of the package recommendation model:
// (Q, D, Qc, cost(), val(), C, k) in the paper's notation, plus the
// predefined polynomial bound on package sizes.
//
// Compatibility constraints come in two forms, matching Section 2 and
// Corollary 6.3: a query Qc (satisfied by N iff Qc(N, D) = ∅, where Qc sees
// the package as the relation named by Q's output schema), or an arbitrary
// PTIME predicate CompatFn. Both nil means constraints are absent (the
// setting of Theorem 4.5). If both are set they must both hold.
type Problem struct {
	DB *relation.Database
	Q  query.Query
	Qc query.Query
	// CompatFn reports whether the package is compatible; it realises the
	// PTIME compatibility constraints of Corollary 6.3.
	CompatFn func(Package, *relation.Database) (bool, error)
	Cost     Aggregator
	Val      Aggregator
	Budget   float64 // the cost budget C
	K        int
	// MaxPkgSize is the predefined bound on |N|; 0 means the default
	// polynomial bound p(|D|) = |Q(D)| (every package is a subset of the
	// answer, so this is the tightest sound default). Corollary 6.1 sets it
	// to a constant Bp.
	MaxPkgSize int
	// Prune is an optional hereditary-infeasibility hint: Prune(N) = true
	// asserts that N and every superset of N are invalid, letting the
	// enumeration cut the branch. Soundness is the caller's obligation; the
	// reductions use it for assignment-consistency checks, which are
	// hereditary even when their cost functions are not monotone.
	Prune func(Package) bool
	// Counters, when non-nil, receives engine cost accounting (DFS nodes
	// visited, packages yielded, subtrees pruned, bound evaluations) from
	// every walk over this problem; see EngineCounters.
	Counters *EngineCounters
	// Exhaustive disables the branch-and-bound layer: no bounders are
	// consulted and every solver degrades to the plain enumeration with
	// only the monotone-cost budget check. Results are identical either
	// way — the flag exists for the Pruned-vs-Exhaustive benchmarks and
	// the equivalence tests that prove exactly that.
	Exhaustive bool
	// TrackProvenance asks Prepare to build the per-candidate read table
	// (see Provenance) alongside the candidate answer, using the traced
	// evaluator — same join work, plus lineage recording priced per
	// candidate. Only the traceable fragment (CQ/UCQ) supports it; for
	// other languages the flag is ignored and Provenance() returns nil.
	TrackProvenance bool

	candidates *relation.Relation
	candList   []relation.Tuple
	// candKeys[i] is candList[i].Key(), computed once per candidate: the
	// engine's package keys, the session memo and the provenance table
	// read it instead of formatting tuples again.
	candKeys []string
	// Memoised bound tables over candList (see newStrategy); rebuilt after
	// InvalidateCache.
	costBounds  Bounder
	valBounds   Bounder
	boundsReady bool
	// prov is the read-provenance table (TrackProvenance); advanced
	// problems inherit a rebuilt table instead of re-tracing.
	prov *Provenance
}

// Validate checks the instance is well-formed.
func (p *Problem) Validate() error {
	if p.DB == nil || p.Q == nil {
		return fmt.Errorf("core: problem needs a database and a selection query")
	}
	if err := p.Q.Validate(); err != nil {
		return err
	}
	if p.Qc != nil {
		if err := p.Qc.Validate(); err != nil {
			return err
		}
	}
	if p.K < 0 || p.MaxPkgSize < 0 {
		return fmt.Errorf("core: k and MaxPkgSize must be non-negative")
	}
	return nil
}

// Candidates returns Q(D), memoised. Its tuples are the items packages are
// built from; the memoised list is kept in canonical tuple order, the
// invariant that lets the enumeration engine materialise packages and fold
// aggregator state without re-sorting.
func (p *Problem) Candidates() (*relation.Relation, error) {
	if p.candidates == nil {
		var r *relation.Relation
		var err error
		var reads map[string][]string
		if p.TrackProvenance && query.Traceable(p.Q) {
			r, reads, err = query.TraceEval(p.Q, p.DB)
		} else {
			r, err = p.Q.Eval(p.DB)
		}
		if err != nil {
			return nil, err
		}
		p.candidates = r
		ts := append([]relation.Tuple(nil), r.Tuples()...)
		sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
		p.candList = ts
		p.candKeys = make([]string, len(ts))
		for i, t := range ts {
			p.candKeys[i] = t.Key()
		}
		if reads != nil {
			p.prov = newProvenance(p, reads)
		}
		if p.Counters != nil {
			p.Counters.Prepares.Add(1)
		}
	}
	return p.candidates, nil
}

// CandidateList returns the memoised candidate answer Q(D) as a list in
// canonical tuple order — the exact item order the enumeration engine walks
// and the order dfsPath materialises packages in. Alternative backends
// (internal/pbo) number their decision variables from this list, so their
// item numbering, package keys and tie-breaking agree with the engine's
// canonical order. The returned slice is the memoised state itself: callers
// must treat it as read-only.
func (p *Problem) CandidateList() ([]relation.Tuple, error) {
	if _, err := p.Candidates(); err != nil {
		return nil, err
	}
	return p.candList, nil
}

// Prepare forces the lazily memoised per-Problem state — the candidate
// answer Q(D) in canonical order and the aggregator bound tables — to be
// built now. Solvers build this state on first use, but that first use is
// a write: a Problem may be shared by concurrent solves only after Prepare
// (or one completed solve) has run, when the engine touches the problem
// read-only. The serving layer's batch pipeline uses this to evaluate a
// spec's candidates once and share the bounders across every sub-solve of
// the batch.
func (p *Problem) Prepare() error {
	if _, err := p.Candidates(); err != nil {
		return err
	}
	p.newStrategy(nil) // memoises the cost/val bound tables
	return nil
}

// InvalidateCache drops the memoised candidate answer and the bound
// tables built over it, for callers that mutate DB, Q or the aggregators.
func (p *Problem) InvalidateCache() {
	p.candidates = nil
	p.candList = nil
	p.candKeys = nil
	p.costBounds = nil
	p.valBounds = nil
	p.boundsReady = false
	p.prov = nil
}

// maxSize resolves the package size bound.
func (p *Problem) maxSize() (int, error) {
	if p.MaxPkgSize > 0 {
		return p.MaxPkgSize, nil
	}
	c, err := p.Candidates()
	if err != nil {
		return 0, err
	}
	return c.Len(), nil
}

// WithMaxSize returns a copy of the problem with packages bounded by bp, the
// constant-bound special case of Corollary 6.1 (bp = 1 with absent Qc is the
// item setting of Theorem 6.4).
func (p *Problem) WithMaxSize(bp int) *Problem {
	c := *p
	c.MaxPkgSize = bp
	c.InvalidateCache()
	return &c
}

// WithCounters returns a shallow copy of the problem whose engine
// accounting flows to c instead of p.Counters. The memoised solve state
// (candidate list, bound tables, provenance) is shared with the receiver,
// so on a prepared problem the copy is safe for concurrent read-only
// solves alongside the original. This is the per-solve half of the
// accounting: run one solve on the copy, read c's tallies for that solve
// alone, then flush them into the shared totals with EngineCounters.AddTo.
func (p *Problem) WithCounters(c *EngineCounters) *Problem {
	cp := *p
	cp.Counters = c
	return &cp
}

// Compatible reports whether the package satisfies the compatibility
// constraints: Qc(N, D) = ∅ and/or CompatFn.
func (p *Problem) Compatible(pkg Package) (bool, error) {
	if p.Qc != nil {
		schema := relation.AutoSchema(p.Q.OutName(), p.Q.Arity())
		db := p.DB.WithRelation(pkg.Relation(schema))
		ans, err := p.Qc.Eval(db)
		if err != nil {
			return false, err
		}
		if ans.Len() != 0 {
			return false, nil
		}
	}
	if p.CompatFn != nil {
		ok, err := p.CompatFn(pkg, p.DB)
		if err != nil || !ok {
			return ok, err
		}
	}
	return true, nil
}

// Valid reports whether pkg satisfies conditions (1)–(4) of a top-k package
// selection: pkg ⊆ Q(D), |pkg| within the size bound, Qc(pkg, D) = ∅, and
// cost(pkg) ≤ C.
func (p *Problem) Valid(pkg Package) (bool, error) {
	cands, err := p.Candidates()
	if err != nil {
		return false, err
	}
	ms, err := p.maxSize()
	if err != nil {
		return false, err
	}
	if pkg.Len() > ms {
		return false, nil
	}
	for _, t := range pkg.Tuples() {
		if !cands.Contains(t) {
			return false, nil
		}
	}
	if p.Cost.Eval(pkg) > p.Budget {
		return false, nil
	}
	return p.Compatible(pkg)
}

// ValidAbove reports whether pkg is valid for (Q, D, Qc, cost, val, C, B),
// i.e. valid with val(pkg) ≥ B (Section 5's validity notion).
func (p *Problem) ValidAbove(pkg Package, bound float64) (bool, error) {
	ok, err := p.Valid(pkg)
	if err != nil || !ok {
		return ok, err
	}
	return p.Val.Eval(pkg) >= bound, nil
}

// EnumerateValid enumerates every valid non-empty package in a
// deterministic order, invoking yield for each; yield returning false stops
// the enumeration. The search walks subsets of Q(D) depth-first in
// canonical tuple order, pruning over-budget branches when the cost
// aggregator is monotone or carries a Bounder (all stock constructors do);
// cost is evaluated incrementally along the DFS path when the cost
// aggregator provides a Stepper. No val floor applies here — every valid
// package is enumerated. This is the deterministic simulation of the
// paper's oracle machines; its worst case is exponential in |Q(D)|, as the
// complexity results require.
func (p *Problem) EnumerateValid(yield func(Package) (bool, error)) error {
	return p.enumerateValidPath(func(pkg Package, _ *dfsPath) (bool, error) {
		return yield(pkg)
	})
}

// ExistsKValid reports whether k pairwise-distinct valid packages rated at
// least B exist, the feasibility check shared by the query-relaxation and
// adjustment problems (Sections 7 and 8). B is a static floor for the
// bound layer: subtrees that cannot reach it hold no qualifying package.
func (p *Problem) ExistsKValid(k int, bound float64) (bool, error) {
	if k <= 0 {
		return true, nil
	}
	found := 0
	err := p.enumerateValidFloor(newFloor(bound, false), func(path *dfsPath) (bool, error) {
		if path.val() >= bound {
			found++
			if found >= k {
				return false, nil
			}
		}
		return true, nil
	})
	return found >= k, err
}
