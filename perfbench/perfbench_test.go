package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny shrinks a workload's catalog so that a run takes about a second.
func tiny(w workload) workload {
	w.nPOI = min(w.nPOI, 40)
	return w
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each run is correct and emits every metric BENCHMARK.json
// names, with its unit.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{w: tiny(workloads[name]), seed: 3, dur: 900 * time.Millisecond,
				trace: traced, setups: 2, workDir: t.TempDir()}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
			if traced {
				checkChosenWork(t, name, res.Metrics)
			}
		}
	}
}

// checkChosenWork checks that a traced run shows the workload doing the
// work it was chosen for.
func checkChosenWork(t *testing.T, name string, m map[string]metric) {
	t.Helper()
	v := func(metric string) float64 { return m[metric].Value }
	switch name {
	case "warm-hit":
		if v("serve.hit_rate") != 1 || v("core.nodes_per_item") != 0 {
			t.Errorf("warm-hit: hit rate %v and %v nodes per item, want 1 and 0", v("serve.hit_rate"), v("core.nodes_per_item"))
		}
	case "cold-mix":
		if v("serve.lookups_per_item") != 0 {
			t.Errorf("cold-mix: %v cache lookups per item, want none", v("serve.lookups_per_item"))
		}
	case "poi-churn":
		for _, tier := range []string{"rekeyed", "patched", "resolved"} {
			if v("serve.repair."+tier+"_per_delta") <= 0 {
				t.Errorf("poi-churn: no %s repairs", tier)
			}
		}
		if v("serve.batch_dedup_share") <= 0 {
			t.Error("poi-churn: no batch deduplication")
		}
	}
}

// TestOracleCatchesWrongAnswer corrupts one expected answer and checks
// that the run reports the item as failed.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	cfg := config{w: tiny(workloads["warm-hit"]), seed: 1, dur: 300 * time.Millisecond,
		setups: 1, workDir: t.TempDir(), corrupt: true}
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted oracle: correct=%v failed=%d, want a reported failure", res.Correct, res.Failed)
	}
}

// TestOracleCatchesWrongAnswerUnderChurn corrupts the expected answers of
// one pool item on poi-churn, where answers are checked against the
// replayed versions after the run.
func TestOracleCatchesWrongAnswerUnderChurn(t *testing.T) {
	cfg := config{w: tiny(workloads["poi-churn"]), seed: 1, dur: 300 * time.Millisecond,
		setups: 1, workDir: t.TempDir(), corrupt: true}
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatalf("corrupted oracle: correct=%v failed=%d, want an incorrect run", res.Correct, res.Failed)
	}
}

// TestJudge checks which versions an answer may be given on: the one its
// response names, or another one current while its call was in flight.
func TestJudge(t *testing.T) {
	// Item 0 answers 10 on versions 4 and 6 and 20 on version 5.
	expected := map[recKey]uint64{{4, 0}: 10, {5, 0}: 20, {6, 0}: 10, {7, 0}: 20}
	for _, c := range []struct {
		name          string
		version       uint64
		digest        uint64
		lo, hi        uint64
		wantOK, raced bool
	}{
		{"exact", 5, 20, 5, 5, true, false},
		{"exact in a raced call", 5, 20, 4, 6, true, false},
		{"next version in flight", 5, 10, 5, 6, true, true},
		{"previous version in flight", 5, 10, 4, 5, true, true},
		{"wrong with no race", 5, 10, 5, 5, false, false},
		{"other version not in flight", 6, 20, 6, 6, false, false},
		{"named version not in flight", 7, 20, 5, 6, false, false},
		{"no library answer", 8, 20, 8, 8, false, false},
	} {
		k := answerKey{version: c.version, digest: c.digest}
		ok, raced := judge(k, c.lo, c.hi, expected)
		if ok != c.wantOK || raced != c.raced {
			t.Errorf("%s: judge = %v, %v; want %v, %v", c.name, ok, raced, c.wantOK, c.raced)
		}
	}
}

// TestStreamIsSeeded checks that a seed fixes the item stream.
func TestStreamIsSeeded(t *testing.T) {
	for _, repeat := range []float64{0, 0.9} {
		a := makeStream(rand.New(rand.NewSource(5)), poolSize, 4096, repeat)
		b := makeStream(rand.New(rand.NewSource(5)), poolSize, 4096, repeat)
		c := makeStream(rand.New(rand.NewSource(6)), poolSize, 4096, repeat)
		if !slices.Equal(a, b) || slices.Equal(a, c) {
			t.Errorf("repeat %v: streams are not a function of the seed", repeat)
		}
	}
}

// TestSchedule checks the interleaving of solve calls and installs.
func TestSchedule(t *testing.T) {
	s, err := newSchedule(workload{name: "t", batch: 16, deltaEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for k := int64(0); k < 6; k++ {
		install, call := s.op(k)
		if install {
			call = -1
		}
		got = append(got, call)
	}
	if want := []int64{0, 1, -1, 2, 3, -1}; !slices.Equal(got, want) {
		t.Errorf("ops %v, want %v", got, want)
	}
	if _, err := newSchedule(workload{name: "t", batch: 16, deltaEvery: 24}); err == nil {
		t.Error("deltaEvery not a multiple of batch was accepted")
	}
}

// BenchmarkColdMixSearch runs the library search of the cold-mix pool on
// prepared problems: the work a cold-mix item does inside the daemon, for
// profiling it with -cpuprofile.
func BenchmarkColdMixSearch(b *testing.B) {
	db := experiments.WorkloadDB(workloads["cold-mix"].nPOI)
	pool, err := experiments.SampleWorkload(rand.New(rand.NewSource(1)), poolSize, db, nil)
	if err != nil {
		b.Fatal(err)
	}
	probs := make([]*core.Problem, len(pool))
	sels := make([][]core.Package, len(pool))
	for i, it := range pool {
		if probs[i], err = it.Spec.Build(db); err != nil {
			b.Fatal(err)
		}
		if err := probs[i].Prepare(); err != nil {
			b.Fatal(err)
		}
		if sels[i], err = decodeSelection(it.Selection); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pool)
		if _, err := solveOp(ctx, probs[j], pool[j], sels[j]); err != nil {
			b.Fatal(err)
		}
	}
}
