package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
)

// wideProblem builds a problem with n candidate items, enough to hand every
// worker several subtree roots.
func wideProblem(n int, budget float64, k int) *Problem {
	db := relation.NewDatabase()
	r := relation.NewRelation(relation.NewSchema("item", "id", "price", "rating"))
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		if err := r.Insert(relation.Ints(int64(i), int64(1+rng.Intn(20)), int64(rng.Intn(10)))); err != nil {
			panic(err)
		}
	}
	db.Add(r)
	return &Problem{
		DB: db, Q: query.Identity("RQ", db.Relation("item")),
		Cost: SumAttr(1).WithMonotone(), Val: SumAttr(2),
		Budget: budget, K: k,
	}
}

// TestCountValidParallelErroringCompatFn is the regression test for the
// worker-pool deadlock: with far more subtree roots than workers and a
// compatibility predicate that fails instantly, every worker bails out on
// its first root — the root feed must not block on the dead pool. The old
// unbuffered feed hung here forever.
func TestCountValidParallelErroringCompatFn(t *testing.T) {
	p := wideProblem(60, 50, 1)
	boom := errors.New("compat exploded")
	p.CompatFn = func(Package, *relation.Database) (bool, error) { return false, boom }
	type res struct {
		n   int64
		err error
	}
	done := make(chan res, 1)
	go func() {
		n, err := p.CountValidParallel(0, 2)
		done <- res{n, err}
	}()
	select {
	case r := <-done:
		if !errors.Is(r.err, boom) {
			t.Fatalf("want the CompatFn error, got n=%d err=%v", r.n, r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("CountValidParallel deadlocked on an erroring CompatFn")
	}
}

// TestParallelContextCancellation: a pre-cancelled context stops the engine
// before (or promptly after) it starts and surfaces ctx.Err().
func TestParallelContextCancellation(t *testing.T) {
	p := wideProblem(40, math.Inf(1), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.CountValidParallelCtx(ctx, 0, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, _, err := p.FindTopKParallelCtx(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindTopKParallelCtx: want context.Canceled, got %v", err)
	}
}

func TestFindTopKParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		p := wideProblem(5+rng.Intn(6), float64(10+rng.Intn(50)), 1+rng.Intn(4))
		sel, ok, err := p.FindTopK()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 3, 7} {
			selP, okP, err := p.FindTopKParallel(workers)
			if err != nil {
				t.Fatal(err)
			}
			if okP != ok {
				t.Fatalf("trial %d workers %d: ok %v vs serial %v", trial, workers, okP, ok)
			}
			if len(selP) != len(sel) {
				t.Fatalf("trial %d workers %d: %d packages vs serial %d", trial, workers, len(selP), len(sel))
			}
			for i := range sel {
				if !sel[i].Equal(selP[i]) {
					t.Fatalf("trial %d workers %d: rank %d differs: %v vs %v",
						trial, workers, i, selP[i], sel[i])
				}
			}
		}
	}
}

func TestDecideTopKParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 10; trial++ {
		p := wideProblem(5+rng.Intn(5), float64(10+rng.Intn(40)), 2)
		sel, ok, err := p.FindTopK()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		// The true top-k must be accepted by both engines.
		okS, _, err := p.DecideTopK(sel)
		if err != nil {
			t.Fatal(err)
		}
		okP, witP, err := p.DecideTopKParallel(sel, 3)
		if err != nil {
			t.Fatal(err)
		}
		if okS != okP {
			t.Fatalf("trial %d: parallel decision %v vs serial %v", trial, okP, okS)
		}
		// A deliberately suboptimal selection must be rejected, and any
		// parallel witness must be a genuine counterexample.
		var worst []Package
		minVal := math.Inf(1)
		err = p.enumerateValidPath(func(pkg Package, path *dfsPath) (bool, error) {
			worst = append(worst, pkg)
			minVal = math.Min(minVal, path.val())
			return len(worst) < p.K, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(worst) < p.K {
			continue
		}
		okS, _, err = p.DecideTopK(worst)
		if err != nil {
			t.Fatal(err)
		}
		okP, witP, err = p.DecideTopKParallel(worst, 3)
		if err != nil {
			t.Fatal(err)
		}
		if okS != okP {
			t.Fatalf("trial %d (suboptimal sel): parallel %v vs serial %v", trial, okP, okS)
		}
		if !okP && witP != nil {
			valid, err := p.Valid(*witP)
			if err != nil {
				t.Fatal(err)
			}
			inSel := false
			for _, s := range worst {
				if s.Equal(*witP) {
					inSel = true
				}
			}
			if !valid || inSel || p.Val.Eval(*witP) <= minValOf(p, worst) {
				t.Fatalf("trial %d: parallel witness %v is not a counterexample", trial, *witP)
			}
		}
	}
}

func minValOf(p *Problem, sel []Package) float64 {
	m := math.Inf(1)
	for _, s := range sel {
		m = math.Min(m, p.Val.Eval(s))
	}
	return m
}

func TestExistsKValidParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 15; trial++ {
		p := wideProblem(4+rng.Intn(6), float64(5+rng.Intn(40)), 1)
		bound := float64(rng.Intn(12))
		for _, k := range []int{0, 1, 3, 1000} {
			seq, err := p.ExistsKValid(k, bound)
			if err != nil {
				t.Fatal(err)
			}
			par, err := p.ExistsKValidParallel(k, bound, 3)
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Fatalf("trial %d k=%d bound=%g: parallel %v vs serial %v", trial, k, bound, seq, par)
			}
		}
	}
}

// TestEnumerateValidIncrementalMatchesRecompute pins that the incremental
// path evaluator changes no observable output: the same problem solved with
// stepper-backed aggregators and with opaque Func wrappers (which force full
// recomputation) enumerates identical packages with identical ratings.
func TestEnumerateValidIncrementalMatchesRecompute(t *testing.T) {
	p := wideProblem(9, 35, 2)
	opaque := *p
	opaque.Cost = Func("cost", p.Cost.Eval).WithMonotone()
	opaque.Val = Func("val", p.Val.Eval)

	type seen struct {
		key string
		val float64
	}
	collect := func(pr *Problem) []seen {
		var out []seen
		if err := pr.enumerateValidPath(func(pkg Package, path *dfsPath) (bool, error) {
			out = append(out, seen{pkg.Key(), path.val()})
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	fast, slow := collect(p), collect(&opaque)
	if len(fast) != len(slow) {
		t.Fatalf("incremental enumerated %d packages, recompute %d", len(fast), len(slow))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("package %d differs: incremental %+v vs recompute %+v", i, fast[i], slow[i])
		}
	}
}
