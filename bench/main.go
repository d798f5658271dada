// Command bench is the repository's performance benchmark: a
// fixed-work, four-workload navigation benchmark with a per-layer pass
// (see README.md in this directory and BENCHMARK.json at the root).
//
//	bash bench/run.sh                      every workload, every metric
//	bash bench/run.sh -workload warm-browse -seed 7 -seconds 12 -trace 0
//	bash bench/run.sh -workload fleet-mixed -trace 1 -trace-out /tmp/t.json
//	bash bench/run.sh -layers              the layer pass alone
//	bash bench/run.sh -selfcheck           the noise self-check (SELFCHECK.txt)
//
// With -workload the last line of standard output is the contract's
// JSON object: the end-to-end metrics with -trace 0, the per-layer
// metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// rig is one set-up system: sources, fleet, runner, and the warm-up
// round that ended the set-up.
type rig struct {
	src    *sources
	fleet  *fleet
	runner *runner
	warmup roundResult
	took   time.Duration
}

func (g *rig) teardown() error {
	err := g.fleet.halt()
	g.src.stop()
	return err
}

// release tears a measured rig down. A shutdown that had to force-close
// sessions is worth a warning, not the measurements already taken.
func (g *rig) release() {
	if err := g.teardown(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: warning: teardown: %v\n", err)
	}
}

// setup does everything that precedes the first measured round: build
// the sources, boot the nodes and wrappers, compute the oracle, explore
// the warm views, and run the discarded warm-up round.
func setup(sp *spec, seed int64, sessions int, traced bool) (*rig, error) {
	start := time.Now()
	src, err := buildSources(sp, traced)
	if err != nil {
		return nil, err
	}
	f, err := bootFleet(sp, src)
	if err != nil {
		src.stop()
		return nil, err
	}
	g := &rig{src: src, fleet: f}
	fail := func(err error) (*rig, error) {
		_ = g.teardown()
		return nil, err
	}
	list := sp.sessionList(seed, sessions)
	want, err := computeOracle(sp, src, list)
	if err != nil {
		return fail(err)
	}
	g.runner = newRunner(sp, f, list, want)
	g.warmup = g.runner.round(false)
	if len(g.warmup.errs) > 0 {
		return fail(fmt.Errorf("warm-up round: %w", g.warmup.errs[0]))
	}
	g.took = time.Since(start)
	return g, nil
}

// run is everything one invocation measured on one workload.
type run struct {
	spec      *spec
	seed      int64
	list      []session
	cmds      int // navigation commands per round
	visits    int // region visits scripted per round
	setups    []float64
	warmup    roundResult
	rounds    []roundResult
	traced    *roundResult
	layer     map[string]float64
	spans     []span
	layerSpan []span
}

// adopt records what the set-up system will replay each round.
func (r *run) adopt(g *rig) {
	r.warmup, r.list = g.warmup, g.runner.list
	r.cmds, r.visits = g.runner.perRound()
}

func (r *run) attempted() (attempted, failed int, errs []error) {
	all := append([]roundResult(nil), r.rounds...)
	if r.traced != nil {
		all = append(all, *r.traced)
	}
	for _, rr := range all {
		attempted += rr.sessions
		failed += rr.failed
		errs = append(errs, rr.errs...)
	}
	return attempted, failed, errs
}

// sessionsFor scales a workload's frozen session count to -seconds.
func sessionsFor(sp *spec, seconds int, smoke bool) int {
	if smoke {
		return smokeSessions
	}
	n := int(math.Round(float64(sp.sessions) * float64(seconds) / runSeconds))
	if n < smokeSessions {
		n = smokeSessions
	}
	return n
}

// measureEndToEnd sets the system up setupReps times (setup_s is the
// median) and runs the measured rounds on the last set-up.
func measureEndToEnd(sp *spec, seed int64, sessions, rounds int, keepHist bool) (*run, error) {
	r := &run{spec: sp, seed: seed}
	var g *rig
	for rep := 0; rep < setupReps; rep++ {
		if g != nil {
			g.release()
		}
		var err error
		if g, err = setup(sp, seed, sessions, false); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, g.took.Seconds())
	}
	r.adopt(g)
	for i := 0; i < rounds; i++ {
		r.rounds = append(r.rounds, g.runner.round(keepHist && i == rounds-1))
	}
	g.release()
	return r, nil
}

// measureLayers runs one untraced round, then — on a second set-up
// whose sources count and whose clients record spans — one traced
// round, then the layer pass.
func measureLayers(sp *spec, seed int64, sessions int) (*run, error) {
	r := &run{spec: sp, seed: seed}
	g, err := setup(sp, seed, sessions, false)
	if err != nil {
		return nil, err
	}
	r.setups = []float64{g.took.Seconds()}
	r.adopt(g)
	r.rounds = []roundResult{g.runner.round(false)}
	g.release()
	if g, err = setup(sp, seed, sessions, true); err != nil {
		return nil, err
	}
	tr := newTracer(sp.name)
	g.runner.tr = tr
	for _, rec := range g.runner.recs {
		rec.spans = make([]span, 0, r.cmds+4*sessions)
	}
	traced := g.runner.round(false)
	r.traced = &traced
	r.spans = tr.collect(g.runner.recs[:])
	g.release()
	r.layer = runLayerPass(tr)
	r.layerSpan = tr.layer
	return r, nil
}

func medianOf(rounds []roundResult, f func(roundResult) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, rr := range rounds {
		xs[i] = f(rr)
	}
	return median(xs)
}

// endToEndValues are the gated numbers: each the median of the
// measured rounds.
func (r *run) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":             median(r.setups),
		"cmds_per_s":          medianOf(r.rounds, func(x roundResult) float64 { return x.cmdsPerS }),
		"cmd_p50_us":          medianOf(r.rounds, func(x roundResult) float64 { return x.cmdP50 }),
		"first_answer_p50_us": medianOf(r.rounds, func(x roundResult) float64 { return x.firstP50 }),
		"alloc_bytes_per_cmd": medianOf(r.rounds, func(x roundResult) float64 { return x.allocPerCmd }),
	}
}

// perLayerValues joins the layer pass's times with the counts of the
// traced round (t) and the client-side distributions of the untraced
// round (p).
func (r *run) perLayerValues() map[string]float64 {
	p, t := r.rounds[0], *r.traced
	d := t.delta
	cmds, sessions := float64(t.cmds), float64(t.sessions)
	fresh := 0.0
	for _, s := range r.list {
		if r.spec.families[s.family].fresh {
			fresh++
		}
	}
	vals := map[string]float64{}
	for k, v := range r.layer {
		vals[k] = v
	}
	semantic := ratio(d.f(semanticHits), sessions)
	l2 := ratio(d.f(l2Hits), sessions)
	computed := math.Max(0, ratio(fresh-d.f(semanticHits), sessions))
	for k, v := range map[string]float64{
		"vxdp.bytes_per_cmd":           ratio(float64(t.wireBytes), cmds),
		"vxdp.cmd_p95_us":              p.cmdP95,
		"vxdp.cmd_p99_us":              p.cmdP99,
		"vxdp.round_trips_per_session": ratio(float64(p.roundTrips), float64(p.sessions)),

		"server.open_p50_us":      p.openP50,
		"server.session_p50_ms":   p.sessP50Ms,
		"server.sessions_per_s":   float64(p.sessions) / p.elapsed.Seconds(),
		"server.pool_reuse_ratio": ratio(d.f(poolReused), d.f(poolReused)+d.f(poolCreated)),

		"regioncache.exact_hit_ratio": ratio(d.f(cacheHits), d.f(cacheHits)+d.f(cacheMisses)),
		"regioncache.evictions":       d.f(evictions),
		"regioncache.bytes":           d.f(cacheBytes),
		"regioncache.semantic_hits":   d.f(semanticHits),
		"resolver.semantic_share":     semantic,
		"resolver.l2_share":           l2,
		"resolver.computed_share":     computed,
		"resolver.exact_share":        math.Max(0, 1-semantic-l2-computed),
		"resolver.speculative_share":  ratio(d.f(prefHits), float64(r.visits)),

		"core.src_navs_per_cmd":  ratio(d.f(treeNavs), cmds),
		"core.bindings_per_pull": ratio(d.f(bindings), d.f(batches)),

		"buffer.fills_per_cmd":       ratio(d.f(bufFills), cmds),
		"buffer.round_trips_per_cmd": ratio(d.f(bufRoundTrips), cmds),
		"buffer.demand_fill_share":   ratio(d.f(bufDemand), d.f(bufFills)),
		"lxp.bytes_per_fill":         ratio(d.f(lxpBytes), d.f(lxpFills)),
		"lxp.holes_per_round_trip":   ratio(d.f(bufFills), d.f(bufRoundTrips)),
		"source.navs_per_cmd":        ratio(d.f(treeNavs)+d.f(lxpMsgs), cmds),
		"source.fills_per_cmd":       ratio(d.f(lxpFills), cmds),

		"cluster.proxied_share": ratio(d.f(proxied), float64(t.roundTrips)),
		"cluster.l2_hit_ratio":  ratio(d.f(l2Hits), d.f(l2Hits)+d.f(l2Misses)),

		"prefetch.issued":            d.f(prefIssued),
		"prefetch.hit_ratio":         ratio(d.f(prefHits), d.f(prefIssued)),
		"prefetch.wasted_ratio":      ratio(d.f(prefWasted), d.f(prefIssued)),
		"prefetch.spec_navs_per_cmd": ratio(d.f(prefNavs), cmds),

		"runtime.cpu_us_per_cmd": p.cpuUsPerCmd,
		"runtime.gc_pause_ms":    p.gcPauseMs,
		"runtime.peak_heap_mb":   math.Max(p.heapSysMB, t.heapSysMB),
		"trace.overhead_pct":     100 * ratio(p.cmdsPerS-t.cmdsPerS, p.cmdsPerS),
	} {
		vals[k] = v
	}
	return vals
}

// printRun writes the human-readable record: what ran, how the rounds
// drifted, and one "workload/metric value unit" line per metric.
func printRun(r *run, defs []metricDef, vals map[string]value) {
	fmt.Printf("# %s seed=%d sessions/round=%d commands/round=%d list=%s GOMAXPROCS=%d nproc=%d %s\n",
		r.spec.name, r.seed, len(r.list), r.cmds, listHash(r.list), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Printf("# %s setups_s=%s warm-up_round_s=%.3f (discarded)\n", r.spec.name, fmtFloats(r.setups), r.warmup.elapsed.Seconds())
	for i, rr := range r.rounds {
		fmt.Printf("# %s round %d: %.3fs %d cmds %.0f cmds/s p50=%.1fus p95=%.1fus p99=%.1fus first=%.1fus (%d samples) failed=%d evictions=%d heap=%.0fMB gc=%.1fms\n",
			r.spec.name, i+1, rr.elapsed.Seconds(), rr.cmds, rr.cmdsPerS, rr.cmdP50, rr.cmdP95, rr.cmdP99, rr.firstP50, rr.firstSamples, rr.failed,
			rr.delta[evictions], rr.heapSysMB, rr.gcPauseMs)
	}
	if r.traced != nil {
		fmt.Printf("# %s traced round: %.3fs %.0f cmds/s failed=%d\n", r.spec.name, r.traced.elapsed.Seconds(), r.traced.cmdsPerS, r.traced.failed)
	}
	for _, d := range defs {
		fmt.Printf("%s/%s %.6g %s\n", r.spec.name, d.name, vals[d.name].Value, d.unit)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printHist renders the command latencies of the last measured round on
// a log scale, to check that p50 does not sit on a mode boundary.
func printHist(name string, sorted []float64) {
	if len(sorted) == 0 {
		return
	}
	fmt.Printf("# %s command latency histogram, last round (%d samples)\n", name, len(sorted))
	lo := 8.0
	for lo < sorted[len(sorted)-1] {
		hi := lo * math.Sqrt2
		a := sort.SearchFloat64s(sorted, lo)
		b := sort.SearchFloat64s(sorted, hi)
		if n := b - a; n > 0 {
			fmt.Printf("# %8.1f-%8.1f us %6.2f%% %s\n", lo, hi, 100*float64(n)/float64(len(sorted)),
				strings.Repeat("#", 1+60*n/len(sorted)))
		}
		lo = hi
	}
}

// options are the command-line choices a measurement depends on.
type options struct {
	seed        int64
	seconds     int
	smoke, hist bool
}

// measure runs one workload the way the contract asks and returns its
// result object.
func measure(sp *spec, o options, traceOn bool, traces *[]traceFile) (result, error) {
	seed, hist := o.seed, o.hist && !traceOn
	sessions := sessionsFor(sp, o.seconds, o.smoke)
	rounds := measuredRounds
	if o.smoke {
		rounds = 1
	}
	var (
		r    *run
		err  error
		defs []metricDef
		vals map[string]float64
	)
	if traceOn {
		if r, err = measureLayers(sp, seed, sessions); err != nil {
			return result{}, err
		}
		defs, vals = perLayer, r.perLayerValues()
		if traces != nil {
			*traces = append(*traces, traceFile{Workload: sp.name, Seed: seed, Spans: r.spans,
				Layer: r.layerSpan, Counters: r.traced.delta.named()})
		}
	} else {
		if r, err = measureEndToEnd(sp, seed, sessions, rounds, hist); err != nil {
			return result{}, err
		}
		defs, vals = endToEnd, r.endToEndValues()
	}
	attempted, failed, errs := r.attempted()
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: report(defs, vals)}
	printRun(r, defs, res.Metrics)
	if hist {
		printHist(sp.name, r.rounds[len(r.rounds)-1].hist)
	}
	for i, e := range errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "bench: … %d more failures\n", len(errs)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "bench: %v\n", e)
	}
	return res, nil
}

func main() {
	workloadName := flag.String("workload", "", "run one workload (warm-browse, cold-compute, remote-sources, fleet-mixed); empty = all, both passes")
	seed := flag.Int64("seed", 1, "seed of the session lists")
	seconds := flag.Int("seconds", runSeconds, "nominal measured seconds per run; scales the frozen session counts proportionally")
	traceFlag := flag.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = traced round + layer pass, per-layer metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1: write spans and counter deltas to this JSON file")
	layersOnly := flag.Bool("layers", false, "run the layer pass alone and print its metrics")
	selfcheck := flag.Bool("selfcheck", false, "run the noise self-check: two interleaved sets of 5 runs per workload")
	smoke := flag.Bool("smoke", false, "tiny size: one small round per workload")
	hist := flag.Bool("hist", false, "with -trace 0: print the command latency histogram of the last round")
	describe := flag.Bool("describe", false, "print BENCHMARK.json as the catalogue in this package defines it")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments (see -h)")
		os.Exit(2)
	}

	if *describe {
		printBenchmarkJSON()
		return
	}
	if *layersOnly {
		vals := runLayerPass(nil)
		for _, d := range perLayer {
			if v, ok := vals[d.name]; ok {
				fmt.Printf("layers/%s %.6g %s\n", d.name, v, d.unit)
			}
		}
		return
	}
	if *selfcheck {
		if !runSelfcheck(*seed, *seconds) {
			os.Exit(1)
		}
		return
	}

	opts := options{seed: *seed, seconds: *seconds, smoke: *smoke, hist: *hist}
	var traces *[]traceFile
	if *traceOut != "" {
		traces = new([]traceFile)
	}
	emit := func(v any) {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	ok := true
	if *workloadName != "" {
		sp := specByName(*workloadName)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		res, err := measure(sp, opts, *traceFlag == 1, traces)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		ok = res.Correct
		emit(res)
	} else {
		// Everything: per workload the end-to-end pass, then the traced
		// pass; the last line maps "workload" and "workload#layers" to
		// their result objects.
		all := map[string]result{}
		for i := range specs {
			for _, traceOn := range []bool{false, true} {
				res, err := measure(&specs[i], opts, traceOn, traces)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", specs[i].name, err)
					os.Exit(1)
				}
				ok = ok && res.Correct
				name := specs[i].name
				if traceOn {
					name += "#layers"
				}
				all[name] = res
			}
		}
		emit(all)
	}
	if traces != nil {
		if err := writeTrace(*traceOut, *traces); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}
