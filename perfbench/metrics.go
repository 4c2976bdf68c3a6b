package main

import (
	"bufio"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// percentile is the nearest-rank percentile of vals (0 for none).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// finite replaces the +Inf of a percentile that fell on a failed call
// with the length of the timed phase, which no completed call exceeds.
func finite(v float64, phase time.Duration) float64 {
	if v > ms(phase) {
		return ms(phase)
	}
	return v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTime is the user and system CPU time the process has used so far:
// daemon, client and runtime together.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowsPerRun is the number of windows the timed phase is split into.
// An untraced run prints its wall-clock rates and percentiles per window,
// so that a burst of load from outside the process shows where it fell.
const windowsPerRun = 5

// endToEnd reduces an untraced run to the end-to-end metrics: setupCPU
// are the CPU times of the set-ups, cpu is the CPU time of the timed
// phase. Wall-clock throughput and latencies follow the host's steal time
// too closely to be bounded from run to run on a shared VM (see
// LAYERS.md); they go to standard error, and the traced run reports them
// as per-layer metrics.
func endToEnd(setupCPU []float64, ph *phase, rssMB float64, cpu time.Duration) map[string]metric {
	var rate, p50, p99, d50, d95 []float64
	ws, secs := ph.windows()
	for i, w := range ws {
		rate = append(rate, float64(w.items-w.failed)/secs[i])
		p50 = append(p50, w.lat.percentile(0.50))
		p99 = append(p99, w.lat.percentile(0.99))
		d50 = append(d50, w.deltaLat.percentile(0.50))
		d95 = append(d95, w.deltaLat.percentile(0.95))
	}
	log.Printf("per-window items/s %.0f, solve p50 ms %.4g, solve p99 ms %.4g, delta p50 ms %.4g, delta p95 ms %.4g",
		rate, p50, p99, d50, d95)
	t := ph.totals()
	log.Printf("CPU %.3g s over %.3g s of wall time: %.3g of %d CPUs", cpu.Seconds(), ph.elapsed.Seconds(),
		ratio(cpu.Seconds(), ph.elapsed.Seconds()*float64(runtime.GOMAXPROCS(0))), runtime.GOMAXPROCS(0))
	return map[string]metric{
		"setup_s":         {median(setupCPU), "s"},
		"items_per_cpu_s": {ratio(float64(t.items-t.failed), cpu.Seconds()), "items/cpu_s"},
		"ok_share":        {ratio(float64(t.items-t.failed), float64(t.items)), "ratio"},
		"peak_rss_mb":     {rssMB, "MB"},
	}
}

// counts are the daemon's and the Go runtime's counters phase B reads,
// indexed by the c* constants.
type counts [nCounts]float64

const (
	cHits = iota
	cMisses
	cCoalesced
	cQueued
	cExpress
	cDeduped
	cBatchItems
	cPrepares
	cNodes
	cPruned
	cResumes
	cRekeyed
	cPatched
	cResolved
	cMallocs
	cGCs
	nCounts
)

func readCounts(srv *serve.Server) counts {
	st := srv.Stats()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return counts{
		cHits: float64(st.CacheHits), cMisses: float64(st.CacheMisses), cCoalesced: float64(st.Coalesced),
		cQueued: float64(st.AdmitQueued), cExpress: float64(st.AdmitExpress),
		cDeduped: float64(st.BatchDeduped), cBatchItems: float64(st.BatchItems),
		cPrepares: float64(st.EnginePrepares), cNodes: float64(st.EngineNodes), cPruned: float64(st.EnginePruned),
		cResumes: float64(st.EngineSessionResumes), cRekeyed: float64(st.RepairRekeyed),
		cPatched: float64(st.RepairPatched), cResolved: float64(st.RepairResolved),
		cMallocs: float64(m.Mallocs), cGCs: float64(m.NumGC),
	}
}

func (c counts) sub(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counts) add(o counts) {
	for i := range c {
		c[i] += o[i]
	}
}

// sum adds up the totals and the elapsed time of several phases.
func sum(phases []*phase) (window, time.Duration) {
	t := newWindow()
	var elapsed time.Duration
	for _, ph := range phases {
		pt := ph.totals()
		t.items += pt.items
		t.failed += pt.failed
		t.installs += pt.installs
		elapsed += ph.elapsed
	}
	return t, elapsed
}

// perLayer reduces a traced run to the per-layer metrics: counts from
// the counter deltas of the B phases, times from phase C's spans.
func perLayer(as, bs []*phase, c counts, spans []span, rs *replayStats) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ta, elapsedA := sum(as)
	tb, elapsedB := sum(bs)

	// Phase B: exact counts per item and per delta.
	items := float64(tb.items)
	put("serve.hit_rate", "ratio", ratio(c[cHits], c[cHits]+c[cMisses]))
	put("serve.lookups_per_item", "count/item", ratio(c[cHits]+c[cMisses], items))
	put("serve.coalesced", "count", c[cCoalesced])
	put("serve.admit_queued_share", "ratio", ratio(c[cQueued], c[cQueued]+c[cExpress]))
	put("serve.batch_dedup_share", "ratio", ratio(c[cDeduped], c[cBatchItems]))
	put("core.prepares_per_kitem", "count/kitem", 1000*ratio(c[cPrepares], items))
	put("core.nodes_per_item", "count/item", ratio(c[cNodes], items))
	put("core.pruned_ratio", "ratio", ratio(c[cPruned], c[cNodes]))
	put("relax.session_resumes_per_item", "count/item", ratio(c[cResumes], items))
	installs := float64(tb.installs)
	rk, pt, rv := c[cRekeyed], c[cPatched], c[cResolved]
	put("serve.repair.rekeyed_per_delta", "count/delta", ratio(rk, installs))
	put("serve.repair.patched_per_delta", "count/delta", ratio(pt, installs))
	put("serve.repair.resolved_per_delta", "count/delta", ratio(rv, installs))
	put("serve.repair.ratio", "ratio", ratio(rk+pt, rk+pt+rv))
	put("runtime.allocs_per_item", "count/item", ratio(c[cMallocs], items))
	put("runtime.gc_per_kitem", "count/kitem", 1000*ratio(c[cGCs], items))

	// Tracing overhead: phase B against phase A.
	untraced := float64(ta.items-ta.failed) / elapsedA.Seconds()
	traced := float64(tb.items-tb.failed) / elapsedB.Seconds()
	put("trace.untraced_items_per_s", "items/s", untraced)
	put("trace.items_per_s", "items/s", traced)
	put("trace.overhead_share", "ratio", 1-ratio(traced, untraced))

	// Client-observed latencies of phase A, the untraced closed loop.
	lat, deltaLat := hist{}, hist{}
	for _, ph := range as {
		ws, _ := ph.windows()
		for _, w := range ws {
			lat.add(w.lat)
			deltaLat.add(w.deltaLat)
		}
	}
	put("client.solve_p50_ms", "ms", finite(lat.percentile(0.50), elapsedA))
	put("client.solve_p99_ms", "ms", finite(lat.percentile(0.99), elapsedA))
	put("client.delta_p50_ms", "ms", finite(deltaLat.percentile(0.50), elapsedA))
	put("client.delta_p95_ms", "ms", finite(deltaLat.percentile(0.95), elapsedA))

	// Phase C: per-layer times from the replay spans, grouped by root.
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	type root struct {
		durs map[string]time.Duration
		tags map[string]string
	}
	roots := map[int32]*root{}
	rootOf := make([]int32, len(spans))
	for i, sp := range spans {
		rootOf[i] = int32(i)
		if sp.Parent >= 0 {
			rootOf[i] = rootOf[sp.Parent]
		}
		r := roots[rootOf[i]]
		if r == nil {
			r = &root{durs: map[string]time.Duration{}, tags: map[string]string{}}
			roots[rootOf[i]] = r
		}
		r.durs[sp.Name] = sp.dur()
		r.tags[sp.Name] = sp.Tag
	}
	series := map[string][]float64{}
	var sumHTTP, sumHTTPSelf, sumServeSelf, sumCanon, sumCore, sumRelax float64
	for i := range spans {
		if spans[i].Parent >= 0 {
			continue
		}
		r := roots[int32(i)]
		switch spans[i].Name {
		case "delta":
			apply, repair := r.durs["relation.apply_delta"], r.durs["serve.repair"]
			series["relation.apply_delta_us"] = append(series["relation.apply_delta_us"], us(apply))
			series["relation.wal_append_us"] = append(series["relation.wal_append_us"], us(r.durs["relation.wal_append"]))
			series["serve.repair.mutate_us"] = append(series["serve.repair.mutate_us"], us(repair-apply))
		case "item":
			_, searched := r.durs["core.search"]
			_, relaxed := r.durs["relax.suggest"]
			if !searched && !relaxed {
				continue // the replay of this item failed part way
			}
			for _, name := range []string{"serve.miss", "spec.canon", "spec.build", "core.prepare", "relax.suggest"} {
				if v, ok := r.durs[name]; ok {
					series[name+"_us"] = append(series[name+"_us"], us(v))
				}
			}
			if v, ok := r.durs["core.search"]; ok {
				series["core.search_us."+r.tags["core.search"]] = append(series["core.search_us."+r.tags["core.search"]], us(v))
			}
			hit, hitOK := r.durs["serve.hit"]
			if hitOK && r.tags["serve.hit"] == "hit" {
				series["serve.hit_us"] = append(series["serve.hit_us"], us(hit))
			}
			// The daemon's side of the HTTP call: the in-process call in
			// the same cache state, and on a miss the search it ran.
			var served, work time.Duration
			switch {
			case r.tags["serve.http"] == "hit" && hitOK && r.tags["serve.hit"] == "hit":
				served = hit
			case r.tags["serve.http"] == "miss":
				served = r.durs["serve.miss"]
				work = r.durs["core.search"] + r.durs["relax.suggest"]
			default:
				continue
			}
			httpDur, canon := r.durs["serve.http"], r.durs["spec.canon"]
			series["serve.http.self_us"] = append(series["serve.http.self_us"], us(httpDur-served))
			series["serve.self_us"] = append(series["serve.self_us"], us(served-canon-work))
			sumHTTP += us(httpDur)
			sumHTTPSelf += us(httpDur - served)
			sumServeSelf += us(served - canon - work)
			sumCanon += us(canon)
			if relaxed {
				sumRelax += us(work)
			} else {
				sumCore += us(work)
			}
		}
	}
	for _, name := range []string{
		"serve.http.self_us", "serve.self_us", "serve.hit_us", "serve.miss_us",
		"spec.canon_us", "spec.build_us", "core.prepare_us", "relax.suggest_us",
		"relation.apply_delta_us", "relation.wal_append_us", "serve.repair.mutate_us",
	} {
		put(name, "us", median(series[name]))
	}
	for _, op := range []string{serve.OpTopK, serve.OpCount, serve.OpExists, serve.OpMaxBound, serve.OpDecide} {
		put("core.search_us."+op, "us", median(series["core.search_us."+op]))
	}
	put("share.serve.http", "ratio", ratio(sumHTTPSelf, sumHTTP))
	put("share.serve", "ratio", ratio(sumServeSelf, sumHTTP))
	put("share.spec", "ratio", ratio(sumCanon, sumHTTP))
	put("share.core", "ratio", ratio(sumCore, sumHTTP))
	put("share.relax", "ratio", ratio(sumRelax, sumHTTP))

	put("serve.http.req_bytes", "bytes", median(rs.reqBytes))
	put("serve.http.resp_bytes", "bytes", median(rs.respBytes))
	put("spec.canon_allocs", "count", median(rs.canonAllocs))
	put("serve.hit_allocs", "count", median(rs.hitAllocs))
	put("core.search_allocs", "count", median(rs.searchAllocs))
	put("trace.replayed_items", "count", float64(rs.items))
	return m
}
