package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"pcbl"
	"pcbl/internal/artifact"
	"pcbl/internal/core"
	"pcbl/internal/dataset"
	"pcbl/internal/lattice"
)

const (
	// setupReps is how often set-up runs; setup_s is the median.
	setupReps = 9
	// isoRounds is how many update rounds run alone, with no queries, to
	// measure an update's cost.
	isoRounds = 9
	// minBuilds is the fewest builds a run makes, however long they take.
	minBuilds = 5
	// nominalRate is the fixed query rate the latency metrics are taken at.
	nominalRate = 1000.0
	// nominalShare is the share of --seconds the nominal-rate phase takes.
	nominalShare = 0.4
	// tailWindow is the fewest samples one window of a windowed p99 holds.
	tailWindow = 1000
	// updatePeriod is the writer's schedule: one append round per period.
	updatePeriod = 500 * time.Millisecond
	// latencyLimit is the p99 a ladder rung must meet, timed from due.
	latencyLimit = 20 * time.Millisecond
	// The rate ladder: rung k offers nominalRate·ladderStep^k requests/s.
	ladderStep = 1.05
	// The walk starts at the rung nearest ladderStart times the closed-loop
	// throughput of a ladderBurst-request burst, and offers at most
	// ladderMaxRungs rungs.
	ladderStart    = 0.5
	ladderBurst    = 3000
	ladderMaxRungs = 30
	// rungSeconds is how long one ladder rung offers load.
	rungSeconds = 0.5
	// abortLag ends a rung early once the generator runs this late: the
	// backlog is growing and the rung has failed.
	abortLag = 100 * time.Millisecond
	// Closed-loop probe sizes: the read-path regime checks and the CPU
	// time per query.
	probeCounts    = 9000
	probeEstimates = 9000
	probeBursts    = 9
)

// untraced measures the end-to-end metrics. They are CPU times, sizes
// and ratios: on a shared virtual machine the time its CPUs are taken
// away (steal) moves wall times by tens of percent from one run to the
// next, and CPU time does not count it. The wall-clock latencies are
// per-layer metrics of the traced run.
func (r *run) untraced() error {
	in, err := genBuildInput(r.cfg)
	if err != nil {
		return err
	}
	builds, err := r.buildPhase(in, nil)
	if err != nil {
		return err
	}
	cpus, allocs := make([]time.Duration, len(builds)), make([]float64, len(builds))
	for i, b := range builds {
		cpus[i], allocs[i] = b.cost.cpu, float64(b.cost.alloc)/(1<<20)
	}
	r.set("build_cpu_ms", "ms", median(ms(cpus)))
	r.set("build_alloc_mb", "MB", median(allocs))
	r.env["builds"] = len(builds)
	r.env["label"] = builds[0].String()

	sv, srv, setupServe, err := r.setupServe(builds[0], nil, setupReps)
	if err != nil {
		return err
	}
	defer srv.stop()
	r.set("setup_s", "s", median(secs(cpuOf(setupServe))))

	g := r.loadgen(srv, sv, nil)
	defer g.close()
	rng := rand.New(rand.NewPCG(r.cfg.seed, 0x10AD))
	pr, err := r.probe(g, srv, sv, rng)
	if err != nil {
		return err
	}
	r.set("count_alloc_kb", "KiB", pr.alloc[0])
	r.set("estimate_alloc_kb", "KiB", pr.alloc[1])

	w := r.writer(g, sv, nil)
	defer w.client.CloseIdleConnections()
	samples, _, err := r.nominal(g, w, sv, rng)
	if err != nil {
		return err
	}
	ok := 0
	for _, s := range samples {
		if s.ok {
			ok++
		}
	}
	r.set("query_ok_ratio", "ratio", float64(ok)/float64(len(samples)))
	updates, err := r.isolatedUpdates(w)
	if err != nil {
		return err
	}
	allocs = allocs[:0]
	for _, c := range updates {
		allocs = append(allocs, float64(c.alloc)/(1<<20))
	}
	r.set("update_alloc_mb", "MB", median(allocs))

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	// Maxrss is in KiB on Linux. It is read before the late checks, whose
	// unbudgeted oracle build is the benchmark's memory, not the program's.
	r.set("peak_rss_mb", "MB", float64(ru.Maxrss)/1024)
	r.noteFailures(g)
	return nil
}

// cost is what one step took: wall time, the process's CPU time and the
// bytes it allocated.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
}

// measure runs fn and returns its cost. It collects garbage first, so the
// cost includes the collections fn's own allocations cause and none left
// over from before.
func measure(fn func() error) (cost, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wall, cpu := time.Now(), cpuTime()
	err := fn()
	c := cost{wall: time.Since(wall), cpu: cpuTime() - cpu}
	runtime.ReadMemStats(&after)
	c.alloc = after.TotalAlloc - before.TotalAlloc
	return c, err
}

// cpuTime is the CPU time, user and system, the process has used. The
// kernel does not count steal in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func cpuOf(cs []cost) []time.Duration {
	out := make([]time.Duration, len(cs))
	for i, c := range cs {
		out[i] = c.cpu
	}
	return out
}

func wallOf(cs []cost) []time.Duration {
	out := make([]time.Duration, len(cs))
	for i, c := range cs {
		out[i] = c.wall
	}
	return out
}

// buildPhase runs builds one at a time for the workload's share of the
// run, at least minBuilds, and checks that every build picked the same
// label. With a tracer every build is paired with a traced replay, which
// must pick that label too. The first build's artifact stays on disk for
// the serve phase and its label is checked against the reopened artifact.
func (r *run) buildPhase(in *buildInput, tp *tracedBuilds) ([]*buildOutcome, error) {
	budget := time.Duration(r.cfg.w.buildShare * r.cfg.seconds * float64(time.Second))
	spillDir := r.spillDir()
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	var builds []*buildOutcome
	start := time.Now()
	for i := 0; i < minBuilds || time.Since(start) < budget; i++ {
		dir := filepath.Join(r.cfg.work, fmt.Sprintf("build-%d", i))
		var b *buildOutcome
		c, err := measure(func() (err error) {
			b, err = build(in, dir, spillDir)
			return err
		})
		r.res.Attempted++
		if err != nil {
			return nil, fmt.Errorf("build %d: %w", i, err)
		}
		b.cost = c
		builds = append(builds, b)
		if !b.same(builds[0]) {
			r.problem("build %d picked %v, build 0 picked %v", i, b, builds[0])
		}
		if i == 0 {
			r.checkArtifact(b, dir)
		} else {
			b.drop(dir)
		}
		if tp != nil {
			if err := tp.replay(r, in, builds[0], i); err != nil {
				return nil, err
			}
		}
	}
	return builds, nil
}

// drop releases a build's label and deletes its artifact.
func (b *buildOutcome) drop(dir string) {
	b.label.ReleaseSpill()
	b.label, b.d = nil, nil
	os.RemoveAll(dir)
}

func (r *run) spillDir() string { return filepath.Join(r.cfg.work, "spill") }

// artifactDir is where the first build saved the served artifact.
func (r *run) artifactDir() string { return filepath.Join(r.cfg.work, "build-0") }

// checkArtifact reopens the first build's artifact and checks it against
// the in-memory pipeline: its MaxErr against an exact (unsorted)
// recomputation, and sampled counts against core.CountPattern. On
// serve-mixed the exact MaxErr comes from an unbudgeted build, which runs
// as a late check, after peak_rss_mb is read.
func (r *run) checkArtifact(b *buildOutcome, dir string) {
	l, _, err := artifact.Open(dir)
	if err != nil {
		r.problem("reopen artifact: %v", err)
		return
	}
	defer l.ReleaseSpill()
	rng := rand.New(rand.NewPCG(r.cfg.seed, 0xC4EC))
	d, s := b.d, b.label.Attrs()
	if r.cfg.w.labelAttrs != nil {
		// The full P_A would read every spilled run per pattern; score a
		// sample instead.
		var pats []core.Pattern
		for range 512 {
			pats = append(pats, core.PatternFromRow(d, rng.IntN(d.NumRows()), lattice.FullSet(d.NumAttrs())))
		}
		ps, err := core.FromPatterns(d, pats)
		if err != nil {
			r.problem("sample patterns: %v", err)
			return
		}
		got, _ := core.MaxAbsError(l, ps, core.MaxErrOptions{})
		r.late = append(r.late, func() {
			if want, _ := core.MaxAbsError(core.BuildLabel(d, s), ps, core.MaxErrOptions{}); got != want {
				r.problem("reopened artifact MaxErr %v, unbudgeted build %v", got, want)
			}
		})
	} else if got, _ := core.MaxAbsError(l, core.DistinctTuples(d), core.MaxErrOptions{}); got != b.maxErr {
		r.problem("reopened artifact MaxErr %v, want %v", got, b.maxErr)
	}
	members := s.Members()
	for i := range 256 {
		sub := s
		if i%2 == 1 && len(members) > 1 {
			sub = s.Remove(members[rng.IntN(len(members))])
		}
		p := core.PatternFromRow(d, rng.IntN(d.NumRows()), sub)
		got, ok, err := l.CountE(p)
		if want := core.CountPattern(d, p); err != nil || !ok || got != want {
			r.problem("reopened artifact counts %v: got %d (ok %v, err %v), want %d", p.Format(d), got, ok, err, want)
			return
		}
	}
}

// setupServe derives the serve inputs and writes the base rows, as the
// artifact counted them, to the served CSV. Then it starts the daemon on
// the first build's artifact and warms it, reps times; it keeps the last
// daemon and returns the cost of each start and warm-up.
func (r *run) setupServe(b *buildOutcome, tr *tracer, reps int) (*serveInput, *server, []cost, error) {
	rounds := int(nominalShare*r.cfg.seconds/updatePeriod.Seconds()) + 2 + isoRounds
	sv := genServeInput(b.d, b.label.Attrs(), r.cfg.seed, rounds)
	if err := dataset.WriteCSVFile(r.csvPath(), b.d); err != nil {
		return nil, nil, nil, err
	}
	warm := slices.Concat(sv.marginals, sv.estimates)
	for _, q := range sv.counts[:200] {
		warm = append(warm, q.path)
	}
	var costs []cost
	var srv *server
	for i := range reps {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		c, err := measure(func() error {
			var err error
			if srv, err = startServer(r.artifactDir(), tr); err != nil {
				return err
			}
			g := r.loadgen(srv, sv, nil)
			defer g.close()
			failed := g.closedLoop(warm)
			r.noteFailures(g)
			if failed > 0 {
				return fmt.Errorf("warm-up (set-up %d): %d of %d requests failed", i, failed, len(warm))
			}
			return nil
		})
		if err != nil {
			if srv != nil {
				srv.stop()
			}
			return nil, nil, nil, err
		}
		costs = append(costs, c)
	}
	return sv, srv, costs, nil
}

func (r *run) csvPath() string { return filepath.Join(r.cfg.work, "served.csv") }

// loadgen makes a query sender against srv.
func (r *run) loadgen(srv *server, sv *serveInput, tr *tracer) *loadgen {
	return newLoadgen(srv, sv, tr, runtime.NumCPU(), &r.nextReq)
}

// noteFailures reports the first failures a sender saw, and fails the run
// if any query failed or was answered wrong.
func (r *run) noteFailures(g *loadgen) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, f := range g.failures {
		fmt.Fprintln(os.Stderr, "pipebench: request failed:", f)
	}
	g.failures = nil
	if n := g.bad.Swap(0); n > 0 {
		r.problem("%d queries failed or were answered wrong", n)
	}
}

// probeResult is what the closed-loop probes measured: the read path as
// /v1/stats saw it, and the CPU time and bytes per query beyond those of a
// /healthz request.
type probeResult struct {
	spilled          bool
	loadsPerCount    float64
	hitRatio         float64
	loadsPerEstimate float64
	cpu              [2]float64 // µs per /v1/count and per /v1/estimate
	alloc            [2]float64 // KiB allocated per /v1/count and per /v1/estimate
}

// probe sends closed-loop /healthz requests, then counts, then warmed
// estimates, with nothing else running, and reads the spill counters
// around the counts and the estimates. The /healthz burst is the baseline
// subtracted from the others: what the client and the HTTP server spend
// on any request. On serve-mixed the label must be spilled, counts must
// load runs and warmed estimates must not.
func (r *run) probe(g *loadgen, srv *server, sv *serveInput, rng *rand.Rand) (probeResult, error) {
	var pr probeResult
	// Each burst ranks the count pool in its own order, so the figures
	// average over which patterns the Zipf skew makes hot.
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(sv.counts)-1))
	counts := make([]string, probeCounts)
	var order []int
	for i := range counts {
		if i%(probeCounts/probeBursts) == 0 {
			order = rng.Perm(len(sv.counts))
		}
		counts[i] = sv.counts[order[zipf.Uint64()]].path
	}
	estimates := make([]string, probeEstimates)
	for i := range estimates {
		estimates[i] = sv.estimates[rng.IntN(len(sv.estimates))]
	}
	health := make([]string, probeCounts)
	for i := range health {
		health[i] = "/healthz"
	}
	baseCPU, baseAlloc := r.bursts(g, health)
	client := newClient()
	defer client.CloseIdleConnections()
	var deltas [2]spillStats
	for i, paths := range [][]string{counts, estimates} {
		before, err := srv.stats(client)
		if err != nil {
			return pr, err
		}
		cpu, alloc := r.bursts(g, paths)
		pr.cpu[i], pr.alloc[i] = cpu-baseCPU, alloc-baseAlloc
		after, err := srv.stats(client)
		if err != nil {
			return pr, err
		}
		pr.spilled = after.Spilled
		deltas[i] = spillStats{
			HotHits:      after.HotHits - before.HotHits,
			FloatingHits: after.FloatingHits - before.FloatingHits,
			RunLoads:     after.RunLoads - before.RunLoads,
		}
	}
	c := deltas[0]
	pr.loadsPerCount = float64(c.RunLoads) / probeCounts
	pr.hitRatio = 1 // an in-memory label answers every lookup from memory
	if pr.spilled {
		pr.hitRatio = ratio(float64(c.HotHits+c.FloatingHits), float64(c.HotHits+c.FloatingHits+c.RunLoads))
	}
	pr.loadsPerEstimate = float64(deltas[1].RunLoads) / probeEstimates
	if r.cfg.w.labelAttrs != nil {
		if !pr.spilled {
			r.problem("serve-mixed: the served label is not spilled")
		}
		if c.RunLoads == 0 {
			r.problem("serve-mixed: %d counts loaded no spill runs", probeCounts)
		}
		if deltas[1].RunLoads != 0 {
			r.problem("serve-mixed: %d warmed estimates loaded %d spill runs", probeEstimates, deltas[1].RunLoads)
		}
	}
	return pr, nil
}

// bursts sends paths closed-loop in probeBursts bursts and returns the
// median over the bursts of the CPU time per request, in µs, and the KiB
// allocated per request over all of them.
func (r *run) bursts(g *loadgen, paths []string) (cpuUs, allocKiB float64) {
	var perQuery []time.Duration
	var alloc uint64
	burst := len(paths) / probeBursts
	for b := range probeBursts {
		part := paths[b*burst : (b+1)*burst]
		c, _ := measure(func() error {
			r.res.Failed += int64(g.closedLoop(part))
			return nil
		})
		r.res.Attempted += int64(len(part))
		perQuery = append(perQuery, c.cpu/time.Duration(len(part)))
		alloc += c.alloc
	}
	return median(us(perQuery)), float64(alloc) / 1024 / float64(burst*probeBursts)
}

// writer makes the update writer for the served artifact.
func (r *run) writer(g *loadgen, sv *serveInput, tr *tracer) *writer {
	w := &writer{
		srv: g.srv, client: newClient(), in: sv, csvPath: r.csvPath(),
		engine: pcbl.EngineOptions{SpillDir: r.spillDir()}, gens: g.gens, tr: tr, nextReq: &r.nextReq,
	}
	if r.cfg.w.labelAttrs != nil {
		w.engine = serveEngine(r.spillDir())
	}
	return w
}

// nominal offers the query mix at nominalRate while the writer applies
// one append round per updatePeriod. It returns the query samples and the
// update latencies.
func (r *run) nominal(g *loadgen, w *writer, sv *serveInput, rng *rand.Rand) ([]sample, []time.Duration, error) {
	reqs := sv.mix(rng, int(nominalRate*nominalShare*r.cfg.seconds))
	stop := make(chan struct{})
	var updates []time.Duration
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(updatePeriod)
		defer tick.Stop()
		for w.next < len(sv.chunks)-isoRounds {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			d, err := w.round()
			if err != nil {
				werr = err
				return
			}
			updates = append(updates, d)
		}
	}()
	samples := g.run(reqs, nominalRate, 0)
	close(stop)
	wg.Wait()
	r.res.Attempted += int64(len(samples) + len(updates))
	for _, s := range samples {
		if !s.ok {
			r.res.Failed++
		}
	}
	if werr != nil {
		r.res.Failed++
		return nil, nil, werr
	}
	if len(updates) == 0 {
		return nil, nil, fmt.Errorf("no update round completed in the nominal phase")
	}
	return samples, updates, nil
}

// isolatedUpdates runs isoRounds update rounds back to back with no
// queries and returns each round's cost.
func (r *run) isolatedUpdates(w *writer) ([]cost, error) {
	var costs []cost
	for range isoRounds {
		c, err := measure(func() error {
			_, err := w.round()
			return err
		})
		r.res.Attempted++
		if err != nil {
			r.res.Failed++
			return nil, err
		}
		costs = append(costs, c)
	}
	return costs, nil
}

// ladder finds the highest rung of the rate ladder whose p99 latency
// meets latencyLimit with every request answered and no growing backlog.
// A closed-loop burst of the query mix sizes the first rung. From a
// passing first rung the walk steps up until a rung fails; from a failing
// one it steps down until a rung passes. It returns the highest rung that
// passed, or 0 if none did.
func (r *run) ladder(g *loadgen, sv *serveInput, rng *rand.Rand) float64 {
	var burst []string
	for _, q := range sv.mix(rng, ladderBurst) {
		burst = append(burst, q.path)
	}
	start := time.Now()
	failed := g.closedLoop(burst)
	capacity := float64(len(burst)) / time.Since(start).Seconds()
	r.res.Attempted += int64(len(burst))
	r.res.Failed += int64(failed)
	k := int(math.Round(math.Log(ladderStart*capacity/nominalRate) / math.Log(ladderStep)))
	var rungs []map[string]any
	best, step := 0.0, 0
	for range ladderMaxRungs {
		rate := nominalRate * math.Pow(ladderStep, float64(k))
		pass, p99 := r.rung(g, sv, rng, rate)
		rungs = append(rungs, map[string]any{"rate": rate, "p99_us": p99, "pass": pass})
		if step == 0 {
			step = 1
			if !pass {
				step = -1
			}
		}
		if pass {
			best = max(best, rate)
		}
		if (step > 0) != pass {
			break
		}
		k += step
	}
	r.env["ladder_closed_loop_rps"] = capacity
	r.env["ladder"] = rungs
	return best
}

// rung offers the query mix at rate for rungSeconds and reports whether
// every request was answered, p99 latency met latencyLimit and the
// backlog did not grow.
func (r *run) rung(g *loadgen, sv *serveInput, rng *rand.Rand, rate float64) (pass bool, p99 float64) {
	samples := g.run(sv.mix(rng, int(rate*rungSeconds)), rate, abortLag)
	var lat []time.Duration
	failed := 0
	for _, s := range samples {
		if s.skipped {
			continue
		}
		lat = append(lat, s.latency())
		if !s.ok {
			failed++
		}
	}
	r.res.Attempted += int64(len(lat))
	r.res.Failed += int64(failed)
	p99 = quantile(us(lat), 0.99)
	pass = len(lat) == len(samples) && failed == 0 && p99 <= float64(latencyLimit/time.Microsecond) && tailLag(samples) <= latencyLimit
	time.Sleep(100 * time.Millisecond) // let the rung's backlog and connections settle
	return pass, p99
}

// tailLag is the largest generator lag over the last tenth of a rung's
// requests: it grows with the backlog when the server cannot keep up.
func tailLag(samples []sample) time.Duration {
	var worst time.Duration
	for _, s := range samples[len(samples)*9/10:] {
		worst = max(worst, s.lag())
	}
	return worst
}
