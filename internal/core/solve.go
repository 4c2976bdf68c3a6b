package core

import (
	"fmt"
	"math"
)

// checkSelection verifies the membership conditions of a top-k package
// selection — k packages (size), pairwise distinct (condition (6)), each
// valid (conditions (1)–(4)) — and returns the member key set plus the
// minimum rating among members. ok is false when any condition fails; both
// RPP deciders share it so the acceptance rules cannot drift apart.
func (p *Problem) checkSelection(sel []Package) (seen map[string]struct{}, minVal float64, ok bool, err error) {
	if len(sel) != p.K {
		return nil, 0, false, nil
	}
	seen = make(map[string]struct{}, len(sel))
	minVal = math.Inf(1)
	for _, n := range sel {
		if _, dup := seen[n.Key()]; dup {
			return nil, 0, false, nil // condition (6): pairwise distinct
		}
		seen[n.Key()] = struct{}{}
		valid, err := p.Valid(n)
		if err != nil {
			return nil, 0, false, err
		}
		if !valid {
			return nil, 0, false, nil // conditions (1)–(4)
		}
		minVal = math.Min(minVal, p.Val.Eval(n))
	}
	return seen, minVal, true, nil
}

// DecideTopK decides RPP: whether sel is a top-k package selection for the
// problem. When the answer is no, witness explains why — either a member
// fails validity/distinctness (witness nil) or a valid package outside sel
// out-rates some member (witness set to it).
func (p *Problem) DecideTopK(sel []Package) (ok bool, witness *Package, err error) {
	seen, minVal, ok, err := p.checkSelection(sel)
	if err != nil || !ok {
		return false, nil, err
	}
	// Condition (5): no valid package outside sel rates above any member.
	// The selection minimum is a static exclusive floor: subtrees whose val
	// upper bound cannot rate strictly above it hold no witness.
	var found *Package
	err = p.enumerateValidFloor(newFloor(minVal, true), func(path *dfsPath) (bool, error) {
		if _, inSel := seen[string(path.keyBuf)]; inSel {
			return true, nil
		}
		if path.val() > minVal {
			n := path.pkg()
			found = &n
			return false, nil
		}
		return true, nil
	})
	if err != nil {
		return false, nil, err
	}
	if found != nil {
		return false, found, nil
	}
	return true, nil, nil
}

// scoredPkg pairs a package with its rating inside the top-k machinery.
type scoredPkg struct {
	pkg Package
	val float64
}

// worseScored reports whether a ranks strictly below b under FindTopK's
// deterministic order: descending rating, ties broken by ascending
// canonical package key. It is a strict total order on distinct packages,
// which is what makes the parallel merge reproduce the serial answer.
func worseScored(a, b scoredPkg) bool {
	if a.val != b.val {
		return a.val < b.val
	}
	return a.pkg.Key() > b.pkg.Key()
}

// topkBuf keeps the k best packages seen so far under worseScored; k is
// small, so linear insertion beats a heap. The serial FindTopK feeds one
// buffer; the parallel variant feeds one per worker and merges.
type topkBuf struct {
	k    int
	best []scoredPkg
}

func (b *topkBuf) add(s scoredPkg) {
	pos := len(b.best)
	for pos > 0 && worseScored(b.best[pos-1], s) {
		pos--
	}
	if pos >= b.k {
		return
	}
	b.best = append(b.best, scoredPkg{})
	copy(b.best[pos+1:], b.best[pos:])
	b.best[pos] = s
	if len(b.best) > b.k {
		b.best = b.best[:b.k]
	}
}

// admits reports whether a package rated val with canonical key would
// enter the buffer — add's test, decided on the key bytes so that a
// package the buffer rejects is never materialised.
func (b *topkBuf) admits(val float64, key []byte) bool {
	if b.k <= 0 {
		return false
	}
	if len(b.best) < b.k {
		return true
	}
	w := b.best[b.k-1]
	return w.val < val || (w.val == val && w.pkg.key > string(key))
}

// offer adds the package at path's current node when the buffer admits
// it, materialising it only then, and raises floor to the buffer's k-th
// rating once the buffer is full.
func (b *topkBuf) offer(path *dfsPath, floor *searchFloor) {
	v := path.val()
	if !b.admits(v, path.keyBuf) {
		return
	}
	b.add(scoredPkg{pkg: path.pkg(), val: v})
	if fv, full := b.floorVal(); full {
		floor.raise(fv)
	}
}

// packages extracts the buffered selection in rank order.
func (b *topkBuf) packages() []Package {
	sel := make([]Package, len(b.best))
	for i, s := range b.best {
		sel[i] = s.pkg
	}
	return sel
}

// floorVal returns the buffer's k-th best rating once the buffer is full —
// a sound raise for the search floor: k packages rated at least it already
// exist, so no package rated strictly below can enter the final selection.
// ok is false while the buffer is not yet full (or k = 0).
func (b *topkBuf) floorVal() (float64, bool) {
	if b.k <= 0 || len(b.best) < b.k {
		return 0, false
	}
	return b.best[b.k-1].val, true
}

// findTopKScored is the shared FRP core: the top-k selection together with
// the ratings the enumeration already computed incrementally, so MaxBound
// needs no re-evaluation. The search runs branch-and-bound: once k packages
// are buffered, the k-th rating becomes the live floor and every subtree
// that cannot beat it is cut — the selection is still exactly the
// exhaustive one, because cut subtrees hold only packages that buf.add
// would have rejected.
func (p *Problem) findTopKScored() (scored []scoredPkg, ok bool, err error) {
	buf := topkBuf{k: p.K}
	floor := newFloor(math.Inf(-1), false)
	err = p.enumerateValidFloor(floor, func(path *dfsPath) (bool, error) {
		buf.offer(path, floor)
		return true, nil
	})
	if err != nil {
		return nil, false, err
	}
	if len(buf.best) < p.K {
		return nil, false, nil
	}
	return buf.best, true, nil
}

// FindTopK solves FRP: it returns a top-k package selection ordered by
// descending rating (ties broken by canonical package key), or ok = false
// when fewer than k distinct valid packages exist.
func (p *Problem) FindTopK() (sel []Package, ok bool, err error) {
	scored, ok, err := p.findTopKScored()
	if err != nil || !ok {
		return nil, ok, err
	}
	buf := topkBuf{k: p.K, best: scored}
	return buf.packages(), true, nil
}

// minScored returns the minimum rating of a scored selection (+∞ when
// empty), reusing the values the enumeration computed.
func minScored(scored []scoredPkg) float64 {
	bound := math.Inf(1)
	for _, s := range scored {
		bound = math.Min(bound, s.val)
	}
	return bound
}

// MaxBound solves the optimisation core of MBP: the maximum B such that a
// top-k package selection exists with val(Ni) ≥ B for all i — equivalently
// the k-th highest rating among valid packages. ok is false when no top-k
// selection exists. The ratings come from the scored selection FindTopK's
// core already computed (bitwise-equal to Val.Eval by the Stepper
// contract), not from a re-evaluation.
func (p *Problem) MaxBound() (bound float64, ok bool, err error) {
	scored, ok, err := p.findTopKScored()
	if err != nil || !ok {
		return 0, false, err
	}
	return minScored(scored), true, nil
}

// IsMaxBound decides MBP: whether B is the maximum bound for
// (Q, D, Qc, cost, val, C, k).
func (p *Problem) IsMaxBound(b float64) (bool, error) {
	mb, ok, err := p.MaxBound()
	if err != nil {
		return false, err
	}
	return ok && mb == b, nil
}

// CountValid solves CPP: the number of valid packages rated at least B.
// B is a static floor: subtrees whose val upper bound stays below it
// contribute zero to the count and are cut.
func (p *Problem) CountValid(bound float64) (int64, error) {
	var n int64
	err := p.enumerateValidFloor(newFloor(bound, false), func(path *dfsPath) (bool, error) {
		if path.val() >= bound {
			n++
		}
		return true, nil
	})
	return n, err
}

// existsValidAboveExt is the oracle EXISTPACK≥ from the proof of Theorem
// 5.1: does a valid package N exist with val(N) ≥ bound, N ∉ excl, and
// N ⊇ base? The deterministic simulation is a bounded exhaustive search
// over supersets of base.
func (p *Problem) existsValidAboveExt(bound float64, excl map[string]struct{}, base Package) (bool, error) {
	cands, err := p.Candidates()
	if err != nil {
		return false, err
	}
	ms, err := p.maxSize()
	if err != nil {
		return false, err
	}
	// Check the base itself first.
	if !base.IsEmpty() && base.Len() <= ms {
		if ok, err := p.checkOracleHit(base, bound, excl); err != nil || ok {
			return ok, err
		}
	}
	// Every package the walk builds is a strict superset of base, so none
	// can be valid if base already fills the size bound or strays outside
	// the candidate set — Valid would reject them all.
	if base.Len() >= ms {
		return false, nil
	}
	for _, t := range base.Tuples() {
		if !cands.Contains(t) {
			return false, nil
		}
	}
	// Cost and val are maintained incrementally along the walk: the steppers
	// are seeded with base, then pushed/popped in DFS order. The walk never
	// leaves the candidate set or the size bound, so a node is a hit iff it
	// is fresh, within budget, compatible and rated at least bound. (With
	// base non-empty the fold order differs from the canonical one, which is
	// exact for the integer-valued aggregators FindTopKViaOracle requires.)
	//
	// The oracle inherits the bound layer too: the rating bound is a static
	// floor, and the suffix bounders stay admissible even though the walk
	// skips base tuples — bounds over a superset of the actually available
	// suffix can only be looser.
	st := p.newStrategy(newFloor(bound, false))
	var prunes, boundEvals int64
	if p.Counters != nil {
		defer func() {
			p.Counters.Pruned.Add(prunes)
			p.Counters.BoundEvals.Add(boundEvals)
		}()
	}
	steps := newStepPair(p, base)
	hitIncr := func(next Package, cost float64) (bool, error) {
		if _, skip := excl[next.Key()]; skip {
			return false, nil
		}
		if cost > p.Budget {
			return false, nil
		}
		ok, err := p.Compatible(next)
		if err != nil || !ok {
			return ok, err
		}
		return steps.val(next) >= bound, nil
	}
	found := false
	var walk func(start int, cur Package) (bool, error)
	walk = func(start int, cur Package) (bool, error) {
		if cur.Len() >= ms {
			return true, nil
		}
		for i := start; i < len(p.candList); i++ {
			t := p.candList[i]
			if base.Contains(t) {
				continue
			}
			next := cur.WithTuple(t)
			if p.Prune != nil && p.Prune(next) {
				continue
			}
			steps.push(t)
			cost := steps.cost(next)
			hit, err := hitIncr(next, cost)
			if err != nil {
				steps.pop()
				return false, err
			}
			if hit {
				steps.pop()
				found = true
				return false, nil
			}
			// Monotone-cost pruning, as in EnumerateValid.
			if p.Cost.Monotone() && cost > p.Budget {
				steps.pop()
				continue
			}
			// Bound-driven pruning of the subtree below next (strict
			// extensions drawn from p.candList[i+1:], at most rem more
			// tuples), through the same strategy gate as walkSubtree.
			if rem := ms - next.Len(); st.active() && i+1 < len(p.candList) && rem > 0 {
				var val float64
				if st.floor != nil {
					val = steps.val(next)
				}
				if st.cutBelow(cost, val, next.Len(), i+1, rem, p.Budget, &boundEvals, &prunes) {
					steps.pop()
					continue
				}
			}
			cont, err := walk(i+1, next)
			steps.pop()
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	_, err = walk(0, base)
	return found, err
}

// checkOracleHit tests a concrete package against the oracle's conditions.
// The empty package is never a hit, mirroring EnumerateValid.
func (p *Problem) checkOracleHit(pkg Package, bound float64, excl map[string]struct{}) (bool, error) {
	if pkg.IsEmpty() {
		return false, nil
	}
	if _, skip := excl[pkg.Key()]; skip {
		return false, nil
	}
	return p.ValidAbove(pkg, bound)
}

// FindTopKViaOracle solves FRP with the algorithm from the proof of Theorem
// 5.1: for each of the k slots it binary-searches the maximal integer
// rating B ∈ [lo, hi] for which the oracle EXISTPACK≥ reports a fresh valid
// package, then extracts such a package by self-reduction — repeatedly
// asking the oracle whether the current partial package extends to an
// optimal one. It requires an integer-valued rating function (as the proof
// does, which assumes ratings within [0, 2^p(n)]); the extraction step uses
// direct oracle calls on N ∪ {s} instead of the proof's m×n constant-array
// bookkeeping, which queries the same oracle and extracts the same package.
func (p *Problem) FindTopKViaOracle(lo, hi int64) (sel []Package, ok bool, err error) {
	excl := make(map[string]struct{})
	curHi := hi
	for slot := 0; slot < p.K; slot++ {
		// Binary search the maximal B with a fresh valid package rated ≥ B.
		feasible, err := p.existsValidAboveExt(float64(lo), excl, Package{})
		if err != nil {
			return nil, false, err
		}
		if !feasible {
			return nil, false, nil
		}
		bLo, bHi := lo, curHi // invariant: exists at bLo
		for bLo < bHi {
			mid := bLo + (bHi-bLo+1)/2
			exists, err := p.existsValidAboveExt(float64(mid), excl, Package{})
			if err != nil {
				return nil, false, err
			}
			if exists {
				bLo = mid
			} else {
				bHi = mid - 1
			}
		}
		b := float64(bLo)
		// Self-reducible extraction of a package rated ≥ b.
		pkg, err := p.extractPackage(b, excl)
		if err != nil {
			return nil, false, err
		}
		sel = append(sel, pkg)
		excl[pkg.Key()] = struct{}{}
		curHi = bLo // later packages rate no higher
	}
	return sel, true, nil
}

// extractPackage grows a package tuple by tuple, keeping the invariant that
// some valid fresh package rated ≥ b extends the current partial package.
func (p *Problem) extractPackage(b float64, excl map[string]struct{}) (Package, error) {
	cur := Package{}
	ms, err := p.maxSize()
	if err != nil {
		return Package{}, err
	}
	for steps := 0; steps <= ms; steps++ {
		if hit, err := p.checkOracleHit(cur, b, excl); err != nil {
			return Package{}, err
		} else if hit {
			return cur, nil
		}
		extended := false
		for _, t := range p.candList {
			if cur.Contains(t) {
				continue
			}
			next := cur.WithTuple(t)
			exists, err := p.existsValidAboveExt(b, excl, next)
			if err != nil {
				return Package{}, err
			}
			if exists {
				cur = next
				extended = true
				break
			}
		}
		if !extended {
			return Package{}, fmt.Errorf("core: oracle extraction stalled at %v (bound %g): non-integer ratings?", cur, b)
		}
	}
	return Package{}, fmt.Errorf("core: oracle extraction exceeded the package size bound")
}
