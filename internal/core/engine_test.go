package core

import "testing"

// TestSearchAllocsIndependentOfNodes pins the id-walking engine's cost
// model: counting and feasibility walks never materialise a package, so
// what they allocate is set-up and path buffers sized by the candidate
// count and the path depth — never a per-node package copy or key string.
// The same 22 candidates are searched under a loose and a tight package
// size bound, which changes the node count by well over an order of
// magnitude; the allocation counts may differ only by the path buffers'
// growth to the deeper walk.
func TestSearchAllocsIndependentOfNodes(t *testing.T) {
	measure := func(maxSize int) (nodes int64, count, exists float64) {
		p := wideProblem(22, 1000, 1)
		p.MaxPkgSize = maxSize
		if err := p.Prepare(); err != nil {
			t.Fatal(err)
		}
		var c EngineCounters
		if _, err := p.WithCounters(&c).CountValid(0); err != nil {
			t.Fatal(err)
		}
		count = testing.AllocsPerRun(3, func() {
			if _, err := p.CountValid(0); err != nil {
				t.Fatal(err)
			}
		})
		// k exceeds the number of valid packages, so the walk visits
		// every node before answering no.
		exists = testing.AllocsPerRun(3, func() {
			if ok, err := p.ExistsKValid(1<<30, 0); err != nil || ok {
				t.Fatalf("ExistsKValid = %v, %v; want false, nil", ok, err)
			}
		})
		return c.Nodes.Load(), count, exists
	}
	smallNodes, smallCount, smallExists := measure(2)
	bigNodes, bigCount, bigExists := measure(5)
	t.Logf("nodes %d → %d; CountValid allocs %v → %v; ExistsKValid allocs %v → %v",
		smallNodes, bigNodes, smallCount, bigCount, smallExists, bigExists)
	if bigNodes < 10_000 || bigNodes < 10*smallNodes {
		t.Fatalf("workload too small: %d and %d nodes", smallNodes, bigNodes)
	}
	// Each growing path buffer (ids, key bytes, two stepper stacks)
	// reallocates a few more times on the way from depth 2 to depth 5.
	const slack = 16
	if bigCount > smallCount+slack || bigExists > smallExists+slack {
		t.Fatalf("allocations grow with the node count: CountValid %v → %v, ExistsKValid %v → %v (nodes %d → %d)",
			smallCount, bigCount, smallExists, bigExists, smallNodes, bigNodes)
	}
}
