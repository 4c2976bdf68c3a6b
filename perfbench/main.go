// Command perfbench is the repository's benchmark of the serving stack.
// It starts serve.Server behind serve.NewHandler on a loopback listener
// inside its own process, drives it through serve.Client in a closed loop
// over two connections, checks every answer against the library, and
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	perfbench --workload warm-hit --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// replay and reports the per-layer metrics (see trace.go and LAYERS.md).
// run.sh builds and runs it from a checkout of the repository.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	name := flag.String("workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	seed := flag.Int64("seed", 1, "seed of the pool order and the item stream")
	seconds := flag.Int("seconds", 30, "length of the measured phase, in seconds")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		log.Fatalf("want --workload in %v, --seconds >= 1 and --trace 0 or 1", workloadNames)
	}
	cfg := config{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, setups: 7, workDir: filepath.Join(".bench_build", "perfbench")}
	// Every call carries this deadline, so a daemon that stops answering
	// fails the run's remaining calls instead of hanging the benchmark.
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// traceSlices is the number of slices the traced phases A and B take
// turns in.
const traceSlices = 10

// runDeadline bounds a whole run, set-up and verification included.
const runDeadline = 170 * time.Second

// config is one benchmark run.
type config struct {
	w    workload
	seed int64
	dur  time.Duration
	// trace selects the traced run (per-layer metrics).
	trace bool
	// setups is how many times the untraced run sets up; it reports the
	// median set-up CPU time and measures on the last set-up.
	setups int
	// workDir holds the span file and the scratch WAL.
	workDir string
	// corrupt flips one expected answer, for the self-test that a wrong
	// answer is reported.
	corrupt bool
}

func run(ctx context.Context, cfg config) (*result, error) {
	if cfg.trace {
		return runTraced(ctx, cfg)
	}
	var s *session
	var setupWall, setupCPU []float64
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.st.stop()
		}
		runtime.GC() // each set-up starts from a collected heap
		var d time.Duration
		var err error
		cpu0 := cpuTime()
		if s, d, err = setUp(ctx, cfg.w, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, (cpuTime() - cpu0).Seconds())
		setupWall = append(setupWall, d.Seconds())
	}
	log.Printf("set-up CPU s %.3g, wall-clock s %.3g", setupCPU, setupWall)
	defer s.st.stop()
	if err := prepare(ctx, s, cfg); err != nil {
		return nil, err
	}
	rn, err := newRunner(s)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	ph := rn.loop(ctx, cfg.dur, false)
	cpu := cpuTime() - cpu0
	rss := peakRSSMB()
	recs, fps := collect(s, ph)
	v, err := verify(ctx, s, recs, fps, rn.log.done(), cfg.corrupt)
	if err != nil {
		return nil, err
	}
	ph.mark(v)
	return finish(v, []*phase{ph}, endToEnd(setupCPU, ph, rss, cpu)), nil
}

func runTraced(ctx context.Context, cfg config) (*result, error) {
	runtime.GC()
	s, _, err := setUp(ctx, cfg.w, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.st.stop()
	if err := prepare(ctx, s, cfg); err != nil {
		return nil, err
	}
	rn, err := newRunner(s)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(cfg.workDir, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)

	// Phases A and B alternate in slices, so that a change in the load
	// from outside the process during the run falls on both alike.
	third := cfg.dur / 3
	var as, bs []*phase
	var counted counts
	for i := 0; i < traceSlices; i++ {
		as = append(as, rn.loop(ctx, third/traceSlices, false))
		c0 := readCounts(s.st.srv)
		bs = append(bs, rn.loop(ctx, third/traceSlices, true))
		counted.add(readCounts(s.st.srv).sub(c0))
	}
	c, tr, rs, err := rn.replay(ctx, third, walDir)
	if err != nil {
		return nil, err
	}
	phases := append(append(append([]*phase(nil), as...), bs...), c)

	recs, fps := collect(s, phases...)
	v, err := verify(ctx, s, recs, fps, rn.log.done(), cfg.corrupt)
	if err != nil {
		return nil, err
	}
	v.problems = append(v.problems, rs.problems...)
	for _, ph := range phases {
		ph.mark(v)
	}
	metrics := perLayer(as, bs, counted, tr.spans, rs)

	// Phase B's spans follow phase C's in the span file, renumbered.
	spans := tr.spans
	for _, b := range bs {
		for _, w := range b.workers {
			off := int32(len(spans))
			for _, sp := range w.spans {
				sp.ID += off
				spans = append(spans, sp)
			}
		}
	}
	if err := writeSpans(filepath.Join(cfg.workDir, "spans-"+cfg.w.name+".jsonl"), spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return finish(v, phases, metrics), nil
}

// prepare computes the expected answers the workers check inline, after
// set-up and outside its timing; corrupt flips one of them.
func prepare(ctx context.Context, s *session, cfg config) error {
	if err := s.expectAnswers(ctx); err != nil {
		return err
	}
	if cfg.corrupt && s.expect != nil {
		s.expect.digests[0] ^= 1
	}
	return nil
}

// finish assembles the result line and reports problems on stderr.
func finish(v *verdict, phases []*phase, metrics map[string]metric) *result {
	res := &result{Metrics: metrics}
	for _, ph := range phases {
		t := ph.totals()
		res.Attempted += t.items + t.installs
		res.Failed += t.failed + t.failedInstalls
	}
	for _, p := range v.problems {
		log.Print(p)
	}
	if v.raced > 0 {
		log.Printf("%d distinct answers equal the library answer on another version current while their call was in flight, not on the one their response names", v.raced)
	}
	if len(v.wrong) > 0 {
		log.Printf("%d distinct answers disagree with the library", len(v.wrong))
	}
	for _, n := range v.notes {
		log.Print(n)
	}
	// A wrong answer given during warm-up is no failed item of a timed
	// phase, but it still makes the run incorrect.
	res.Correct = res.Failed == 0 && len(v.problems) == 0 && len(v.wrong) == 0
	return res
}
