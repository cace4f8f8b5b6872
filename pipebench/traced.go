package main

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// layers are the program's modules a build passes through, plus the
// benchmark's own glue (loadgen).
var layers = []string{"dataset", "search", "core", "artifact", "loadgen"}

// tracedBuilds collects the traced replays paired with untraced builds.
type tracedBuilds struct {
	tr     *tracer
	counts []*replayCounts
}

// replay runs traced build i and checks it picks the untraced label.
func (tp *tracedBuilds) replay(r *run, in *buildInput, want *buildOutcome, i int) error {
	dir := filepath.Join(r.cfg.work, fmt.Sprintf("replay-%d", i))
	runtime.GC()
	o, rc, err := replay(in, dir, r.spillDir(), tp.tr, r.nextReq.Add(1))
	r.res.Attempted++
	if err != nil {
		return fmt.Errorf("traced build %d: %w", i, err)
	}
	if !o.same(want) {
		r.problem("traced build %d picked %v, GenerateCtx picked %v", i, o, want)
	}
	o.drop(dir)
	tp.counts = append(tp.counts, rc)
	return nil
}

// traced measures the per-layer metrics: builds alternate untraced and
// traced, the rate ladder runs untraced, then the nominal phase runs with
// every request and update traced. It also reports the wall-clock
// latencies, which steal makes too noisy to bound.
func (r *run) traced() error {
	in, err := genBuildInput(r.cfg)
	if err != nil {
		return err
	}
	tr := newTracer()
	tp := &tracedBuilds{tr: tr}
	builds, err := r.buildPhase(in, tp)
	if err != nil {
		return err
	}
	first := builds[0]
	d := first.d
	for range 5 {
		tr.do("dataset.value_counts", 0, 0, func() {
			for a := range d.NumAttrs() {
				d.ValueCounts(a)
				d.Fractions(a)
			}
		})
	}

	sv, srv, setupServe, err := r.setupServe(first, tr, 1)
	if err != nil {
		return err
	}
	defer srv.stop()
	r.set("wall.setup_s", "s", secs(wallOf(setupServe))[0])
	rng := rand.New(rand.NewPCG(r.cfg.seed, 0x10AD))
	plain := r.loadgen(srv, sv, nil)
	defer plain.close()
	pr, err := r.probe(plain, srv, sv, rng)
	if err != nil {
		return err
	}
	r.set("wall.query_max_rps", "1/s", r.ladder(plain, sv, rng))

	g := r.loadgen(srv, sv, tr)
	defer g.close()
	w := r.writer(g, sv, tr)
	defer w.client.CloseIdleConnections()
	samples, updates, err := r.nominal(g, w, sv, rng)
	if err != nil {
		return err
	}
	iso, err := r.isolatedUpdates(w)
	if err != nil {
		return err
	}
	r.set("loadgen.update_cpu_ms", "ms", median(ms(cpuOf(iso))))
	r.noteFailures(plain)
	r.noteFailures(g)
	spans := tr.snapshot()
	if err := tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s.json", r.cfg.w.name))); err != nil {
		return err
	}

	r.buildLayers(spans, builds, tp)
	r.serveLayers(spans, samples, pr)
	r.wallLatencies(samples, updates)
	return nil
}

// wallLatencies reports the nominal phase's latencies, each timed from
// when the request was due. p99 is the median over windows of at least
// tailWindow samples of each window's p99.
func (r *run) wallLatencies(samples []sample, updates []time.Duration) {
	lat := map[kind][]time.Duration{}
	for _, s := range samples {
		lat[s.kind] = append(lat[s.kind], s.latency())
	}
	r.set("wall.count_p50_us", "us", median(us(lat[kindCount])))
	r.set("wall.count_p99_us", "us", windowedQuantile(us(lat[kindCount]), 0.99, tailWindow))
	r.set("wall.estimate_p50_us", "us", median(us(lat[kindEstimate])))
	r.set("wall.estimate_p99_us", "us", windowedQuantile(us(lat[kindEstimate]), 0.99, tailWindow))
	r.set("wall.update_p50_ms", "ms", median(ms(updates)))
	r.env["nominal_samples"] = map[string]int{"count": len(lat[kindCount]), "estimate": len(lat[kindEstimate]), "marginal": len(lat[kindMarginal]), "updates": len(updates)}
}

// buildLayers reports the build pipeline's per-layer metrics: medians
// over the traced builds of each layer's self time and of each call's
// time and work.
func (r *run) buildLayers(spans []span, builds []*buildOutcome, tp *tracedBuilds) {
	type perBuild struct {
		root int
		wall time.Duration
		sums map[string]time.Duration // span name → summed duration
	}
	byReq := map[int64]*perBuild{}
	var order []int64
	for _, s := range spans {
		if s.Name == "loadgen.build" {
			byReq[s.Req] = &perBuild{root: s.ID, wall: s.dur(), sums: map[string]time.Duration{}}
			order = append(order, s.Req)
		}
	}
	for _, s := range spans {
		if b := byReq[s.Req]; b != nil {
			b.sums[s.Name] += s.dur()
		}
	}
	callMs := func(name string) float64 {
		var xs []float64
		for _, req := range order {
			xs = append(xs, float64(byReq[req].sums[name])/float64(time.Millisecond))
		}
		return median(xs)
	}
	r.set("dataset.read_csv_ms", "ms", callMs("dataset.read_csv"))
	r.set("dataset.bucketize_ms", "ms", callMs("dataset.bucketize"))
	r.set("core.distinct_tuples_ms", "ms", callMs("core.distinct_tuples"))
	r.set("core.build_label_ms", "ms", callMs("core.build_label"))
	r.set("core.max_abs_error_ms", "ms", callMs("core.max_abs_error"))
	r.set("search.enumerate_ms", "ms", callMs("search.enumerate"))
	r.set("artifact.save_ms", "ms", callMs("artifact.save"))
	r.set("dataset.value_counts_ms", "ms", median(ms(byName(spans, "dataset.value_counts"))))

	var rowsPerS []float64
	for _, req := range order {
		ingest := byReq[req].sums["dataset.read_csv"] + byReq[req].sums["dataset.bucketize"]
		rowsPerS = append(rowsPerS, float64(tp.counts[0].rows)/ingest.Seconds())
	}
	r.set("dataset.rows_per_s", "rows/s", median(rowsPerS))

	count := func(f func(c *replayCounts) float64) float64 {
		var xs []float64
		for _, c := range tp.counts {
			xs = append(xs, f(c))
		}
		return median(xs)
	}
	r.set("core.labels_built", "count", count(func(c *replayCounts) float64 { return float64(c.labelsBuilt) }))
	r.set("core.rows_scanned", "count", count(func(c *replayCounts) float64 { return float64(c.rowsScanned) }))
	r.set("core.patterns_scanned", "count", count(func(c *replayCounts) float64 { return float64(c.patternsScanned) }))
	r.set("search.sets_sized", "count", count(func(c *replayCounts) float64 { return float64(c.setsSized) }))
	r.set("search.refined_share", "ratio", count(func(c *replayCounts) float64 { return ratio(float64(c.refinedSets), float64(c.setsSized)) }))
	r.set("search.pool_hit_ratio", "ratio", count(func(c *replayCounts) float64 {
		return ratio(float64(c.poolHits), float64(c.poolHits+c.poolMisses))
	}))

	// The reported self times come from one build, the traced build of
	// median wall time, so that they sum to trace.build_p50_ms and differ
	// from the untraced build_p50_ms by the tracing overhead alone. The
	// regime check compares each layer's median over all traced builds.
	self := map[string][]float64{}
	for _, req := range order {
		st := selfTimes(spans, byReq[req].root)
		for _, l := range layers {
			self[l] = append(self[l], float64(st[l])/float64(time.Millisecond))
		}
	}
	slices.SortFunc(order, func(a, b int64) int { return cmp.Compare(byReq[a].wall, byReq[b].wall) })
	mid := byReq[order[(len(order)-1)/2]]
	midSelf := selfTimes(spans, mid.root)
	largest := layers[0]
	for _, l := range layers {
		r.set(l+".self_ms", "ms", float64(midSelf[l])/float64(time.Millisecond))
		if median(self[l]) > median(self[largest]) {
			largest = l
		}
	}
	untraced := make([]time.Duration, len(builds))
	for i, b := range builds {
		untraced[i] = b.cost.wall
	}
	tracedP50, untracedP50 := float64(mid.wall)/float64(time.Millisecond), median(ms(untraced))
	r.set("wall.build_p50_ms", "ms", untracedP50)
	r.env["builds"] = len(untraced)
	r.set("trace.build_p50_ms", "ms", tracedP50)
	r.set("trace.overhead_pct", "%", 100*(tracedP50-untracedP50)/untracedP50)
	r.env["largest_layer"] = largest
	if want := r.cfg.w.largestLayer; want != "" && largest != want {
		r.problem("%s: largest traced layer is %s, want %s (self times %v)", r.cfg.w.name, largest, want, self)
	}
}

// serveLayers reports the serve phase's per-layer metrics from the
// nominal-rate phase's spans.
func (r *run) serveLayers(spans []span, samples []sample, pr probeResult) {
	counts := map[int64]bool{}
	var lag []time.Duration
	for _, s := range samples {
		if s.kind == kindCount {
			counts[s.req] = true
		}
		lag = append(lag, s.lag())
	}
	client, handler := map[int64]time.Duration{}, map[int64]time.Duration{}
	var handlerTimes []time.Duration
	for _, s := range spans {
		if !counts[s.Req] {
			continue
		}
		switch s.Name {
		case "loadgen.request":
			client[s.Req] = s.dur()
		case "serve.count":
			handler[s.Req] = s.dur()
			handlerTimes = append(handlerTimes, s.dur())
		}
	}
	var overhead []time.Duration
	for req, c := range client {
		if h, ok := handler[req]; ok {
			overhead = append(overhead, c-h)
		}
	}
	r.set("serve.handler_p50_us", "us", median(us(handlerTimes)))
	r.set("serve.handler_p99_us", "us", quantile(us(handlerTimes), 0.99))
	r.set("net.overhead_p50_us", "us", median(us(overhead)))
	r.set("loadgen.lag_p99_ms", "ms", quantile(ms(lag), 0.99))
	r.set("serve.reload_ms", "ms", median(ms(byName(spans, "serve.reload"))))
	r.set("artifact.merge_ms", "ms", median(ms(byName(spans, "artifact.merge"))))
	r.set("artifact.open_ms", "ms", median(ms(byName(spans, "artifact.open"))))
	r.set("dataset.read_append_ms", "ms", median(ms(byName(spans, "dataset.read_append"))))
	r.set("core.build_delta_ms", "ms", median(ms(byName(spans, "core.build_delta"))))
	r.set("serve.count_cpu_us", "us", pr.cpu[0])
	r.set("serve.estimate_cpu_us", "us", pr.cpu[1])
	r.set("spill.run_loads_per_count", "ratio", pr.loadsPerCount)
	r.set("spill.hit_ratio", "ratio", pr.hitRatio)
	r.env["spill_loads_per_estimate"] = pr.loadsPerEstimate
	r.env["traced_count_requests"] = len(handlerTimes)
}
