// Command pipebench is the repository's pipeline benchmark. It drives the
// label pipeline through its public calls, from one process: CSV ingest,
// bucketization, the label search, the artifact save, and an HTTP query
// daemon serving the saved artifact under an open-loop query mix while a
// writer folds appended rows into it.
//
// Run it from the repository root through pipebench/run.sh:
//
//	bash pipebench/run.sh --workload build-wide --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a separate traced run (spans recorded around every call into a layer)
// and the wall-clock latencies. BENCHMARK.json at the repository root
// lists the workloads and metrics; METRICS.md beside this file explains
// them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// outDir, under the directory run.sh builds into, holds the reports, the
// spans and each run's scratch directory.
var outDir = filepath.Join(".bench_build", "pipebench")

// workload is one seeded input and the share of the run spent building.
type workload struct {
	name       string
	buildShare float64 // share of --seconds spent in the build phase
	// labelAttrs fixes the label's attribute set and builds it spilled;
	// nil means the label is searched for.
	labelAttrs []string
	// largestLayer is the layer that must take the most build time in the
	// traced run, the regime the workload exists to measure.
	largestLayer string
}

var workloads = []*workload{
	{name: "build-wide", buildShare: 0.35, largestLayer: "core"},
	{name: "build-tall", buildShare: 0.3, largestLayer: "dataset"},
	{name: "serve-mixed", buildShare: 0.2, labelAttrs: serveLabelAttrs},
}

type config struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	work    string // artifacts, CSVs and spill runs; removed at exit
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates what a run measured and what it found wrong.
type run struct {
	cfg      config
	res      result
	problems []string
	late     []func() // checks run after every metric is measured
	env      map[string]any
	nextReq  atomic.Int64 // request and build ids shared by all spans
}

func (r *run) set(name, unit string, v float64) {
	if math.IsNaN(v) {
		r.problem("metric %s has no samples", name)
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// problem records a failed correctness check or regime assertion.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "pipebench: check failed:", msg)
	r.problems = append(r.problems, msg)
}

func main() {
	name := flag.String("workload", "", "workload: build-wide, build-tall or serve-mixed")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	genInput := flag.Bool("gen-input", false, "write the workload's build CSV to standard output and exit")
	flag.Parse()

	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "pipebench: need --workload build-wide|build-tall|serve-mixed, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	if *genInput {
		csv, err := buildCSV(w, *seed)
		if err == nil {
			_, err = os.Stdout.Write(csv)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pipebench:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, work: work}
	r := &run{cfg: cfg, res: result{Metrics: map[string]metric{}}}
	r.env = environment(cfg)
	if cfg.trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err == nil {
		for _, check := range r.late {
			check()
		}
	}
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	r.res.Correct = len(r.problems) == 0
	r.env["problems"] = r.problems
	envLine, err := json.Marshal(map[string]any{"env": r.env})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	report := fmt.Sprintf("%s\n%s\n", envLine, line)
	// The report only repeats what standard output shows; a failed write
	// loses nothing the result needs.
	_ = os.WriteFile(filepath.Join(outDir, fmt.Sprintf("report-%s-trace%d.jsonl", w.name, *trace)), []byte(report), 0o644)
	fmt.Print(report)
	if !r.res.Correct {
		os.Exit(1)
	}
}

// environment records what the numbers depend on besides the code.
func environment(cfg config) map[string]any {
	env := map[string]any{
		"workload":     cfg.w.name,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"num_cpu":      runtime.NumCPU(),
		"cpus_visible": visibleCPUs(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
	}
	return env
}

// visibleCPUs counts the CPUs in this thread's affinity mask now, or
// returns 0 when the kernel does not say.
func visibleCPUs() int {
	var mask [128]uint64 // room for 8192 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return 0
	}
	count := 0
	for _, w := range mask[:n/8] {
		count += bits.OnesCount64(w)
	}
	return count
}
