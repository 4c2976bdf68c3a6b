package core

import (
	"context"
	"testing"
)

// TestProbeBuildsVariantsUntraced checks that a session probe evaluates a
// variant copied from a provenance-tracking problem without tracing
// lineage, and that its verdicts and witnesses match ExistsKValid on the
// traced problem.
func TestProbeBuildsVariantsUntraced(t *testing.T) {
	base := provProblem()
	for _, bound := range []float64{0, 8, 13, 14} {
		for k := 1; k <= 4; k++ {
			traced := *base
			want, err := traced.ExistsKValid(k, bound)
			if err != nil {
				t.Fatal(err)
			}
			if prov, err := traced.Provenance(); err != nil || prov == nil {
				t.Fatalf("traced problem has no provenance table (err %v)", err)
			}
			sess := NewSolveSession(k, bound)
			for _, parallel := range []bool{false, true} {
				variant := *base
				var got bool
				var wit *Package
				if parallel {
					got, wit, err = sess.ProbeParallel(context.Background(), &variant, "", 2)
				} else {
					got, wit, err = sess.Probe(&variant, "")
				}
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("k=%d B=%v parallel=%v: probe says %v, ExistsKValid %v", k, bound, parallel, got, want)
				}
				if got {
					if wit == nil {
						t.Fatalf("k=%d B=%v: feasible probe returned no witness", k, bound)
					}
					if ok, err := traced.ValidAbove(*wit, bound); err != nil || !ok {
						t.Fatalf("k=%d B=%v: witness %v is not valid above the bound (err %v)", k, bound, *wit, err)
					}
				}
				if prov, err := variant.Provenance(); err != nil || prov != nil {
					t.Fatalf("probed variant carries a provenance table (err %v)", err)
				}
			}
		}
	}
}
