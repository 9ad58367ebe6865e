// Command e2ebench is mictrend's end-to-end benchmark. It generates a
// workload's inputs from a seed with micgen, drives the layers through their
// public functions, checks every result against a reference computed by a
// different code path, and prints the metrics as one JSON object on the last
// line of standard output.
//
//	e2ebench --workload scan-seasonal --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run prints the end-to-end metrics. With --trace 1 it
// measures untraced for the first half of --seconds and traced for the
// second, prints the per-layer metrics, and writes the last traced
// iteration as Chrome Trace JSON under --workdir. See README.md for the
// workloads and the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by --trace 0.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_heap_mib", "MiB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// perLayer are the single-layer metrics printed by --trace 1, in the order
// the report lists them.
var perLayer = []metricDef{
	{"mic.decode_s", "s"},
	{"mic.filter_s", "s"},
	{"mic.records", "count"},
	{"medmodel.fitall_s", "s"},
	{"medmodel.em_iterations", "count"},
	{"medmodel.reproduce_s", "s"},
	{"medmodel.ckpt_reuse_ratio", "ratio"},
	{"trend.detect_s", "s"},
	{"trend.series", "count"},
	{"trend.series_p50_ms", "ms"},
	{"trend.series_max_ms", "ms"},
	{"trend.detect_idle_frac", "ratio"},
	{"changepoint.fits", "count"},
	{"changepoint.fits_per_series", "fits/series"},
	{"changepoint.candidates", "count"},
	{"changepoint.fit_ratio", "ratio"},
	{"changepoint.prefix_resumes", "count"},
	{"ssm.lik_evals", "count"},
	{"ssm.evals_per_fit", "evals/fit"},
	{"ssm.restarts", "count"},
	{"ssm.fit_failures", "count"},
	{"kalman.us_per_eval", "us"},
	{"kalman.steady_share", "ratio"},
	{"kalman.identity_residual", "ratio"},
	{"serve.queue_ms", "ms"},
	{"serve.fold_ms", "ms"},
	{"serve.checkpoint_ms", "ms"},
	{"serve.wal_ms", "ms"},
	{"serve.detect_ms", "ms"},
	{"serve.publish_ms", "ms"},
	{"serve.detections_bytes", "bytes"},
	{"serve.read_p50_ms", "ms"},
	{"serve.read_tail_ms", "ms"},
	{"serve.read_lag_ms", "ms"},
	{"serve.read_service_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mib", "MiB"},
	{"obs.trace_overhead", "ratio"},
}

// workload is one benchmark scenario. generate and reference run before any
// timed region; iterate runs one measured iteration.
type workload interface {
	// generate builds the seed's inputs. It is repeated to time set-up.
	generate() error
	// reference computes the correctness reference. It is repeated to time
	// set-up; every repetition gives the same reference.
	reference() error
	// iterate runs one measured iteration, collecting per-layer evidence
	// into p when p is non-nil.
	iterate(p *probe) (iteration, error)
	// kalmanSeries returns a workload series and whether its model is
	// seasonal, for timing the likelihood kernel.
	kalmanSeries() ([]float64, bool)
	// shape describes the inputs in one line (series counts and sizes).
	shape() string
}

// iteration is what one measured iteration observed.
type iteration struct {
	setup     time.Duration // set-up inside the iteration, outside the timed region
	wall, cpu time.Duration
	peakHeap  float64 // bytes
	ops       []time.Duration
	reads     []time.Duration
	readLag   time.Duration
	attempted int
	failed    int
	failures  []string
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	scale    string
	workdir  string
	workers  int
	// corpusSeed, when nonzero, overrides the micgen seed the workload
	// generates its corpus from (for held-out shape checks).
	corpusSeed uint64
}

func newWorkload(cfg config) (workload, error) {
	small := cfg.scale == "small"
	switch cfg.workload {
	case "scan-seasonal":
		return newScanSeasonal(cfg, small), nil
	case "corpus-bulk":
		return newCorpusBulk(cfg, small), nil
	case "serve-ingest":
		return newServeIngest(cfg, small), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want scan-seasonal, corpus-bulk or serve-ingest)", cfg.workload)
}

// setupReps is how many times a run generates its inputs and computes its
// reference, to time set-up as the median of each.
const setupReps = 3

// timeReps runs f setupReps times and returns each run's seconds.
func timeReps(f func() error) ([]float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "scan-seasonal, corpus-bulk or serve-ingest")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input generation seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.Uint64Var(&cfg.corpusSeed, "corpus-seed", 0, "override the micgen corpus seed (0: the workload's default)")
	fs.StringVar(&cfg.scale, "scale", "full", "full, or small for smoke tests")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/e2ebench", "directory for serving stores and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.scale != "full" && cfg.scale != "small" {
		return fmt.Errorf("--scale must be full or small, got %q", cfg.scale)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	// Load comes from this one process: pin GOMAXPROCS and the pipeline's
	// workers to the visible CPUs rather than trusting defaults.
	cfg.workers = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.workers)

	w, err := newWorkload(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# e2ebench workload=%s seed=%d seconds=%g trace=%d scale=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, cfg.scale)
	fmt.Fprintf(stdout, "# machine nproc=%d gomaxprocs=%d workers=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.workers, runtime.Version(), cpuModel())

	gens, err := timeReps(w.generate)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	refs, err := timeReps(w.reference)
	if err != nil {
		return fmt.Errorf("computing the reference: %w", err)
	}
	fmt.Fprintf(stdout, "# shape %s\n", w.shape())

	if trace == 0 {
		iters, _, err := measure(w, cfg.seconds, false)
		if err != nil {
			return err
		}
		setup := median(gens) + median(refs) + median(iterSetups(iters))
		fmt.Fprintf(stdout, "# setup generate=%.4fs reference=%.4fs (medians of %d) per-iteration=%.4fs\n",
			median(gens), median(refs), setupReps, median(iterSetups(iters)))
		return report(stdout, iters, endToEndMetrics(iters, setup), endToEnd)
	}

	half := cfg.seconds / 2
	base, _, err := measure(w, half, false)
	if err != nil {
		return err
	}
	traced, probes, err := measure(w, half, true)
	if err != nil {
		return err
	}
	y, seasonal := w.kalmanSeries()
	usPerEval, err := timeLikelihood(y, seasonal)
	if err != nil {
		return fmt.Errorf("timing the likelihood kernel: %w", err)
	}
	m := layerMetrics(probes, usPerEval, cfg.workers)
	m["obs.trace_overhead"] = median(iterWalls(traced))/median(iterWalls(base)) - 1
	m["serve.read_p50_ms"], m["serve.read_tail_ms"], m["serve.read_lag_ms"] = readLatencies(base)
	path := fmt.Sprintf("%s/trace-%s-%d.json", cfg.workdir, cfg.workload, cfg.seed)
	if err := writeTrace(path, probes[len(probes)-1]); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# trace %s (%d spans)\n", path, probes[len(probes)-1].tracer.Len())
	all := append(base, traced...)
	return report(stdout, all, m, perLayer)
}

// measure runs iterations until seconds have passed (at least one). When
// traced, each iteration gets a fresh probe, returned in order.
func measure(w workload, seconds float64, traced bool) ([]iteration, []*probe, error) {
	var iters []iteration
	var probes []*probe
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(iters) == 0 || time.Now().Before(deadline) {
		var p *probe
		if traced {
			p = newProbe()
		}
		it, err := w.iterate(p)
		if err != nil {
			return nil, nil, err
		}
		iters = append(iters, it)
		if traced {
			p.finish()
			probes = append(probes, p)
		}
	}
	return iters, probes, nil
}

func iterSetups(iters []iteration) []float64 {
	out := make([]float64, len(iters))
	for i, it := range iters {
		out[i] = it.setup.Seconds()
	}
	return out
}

func iterWalls(iters []iteration) []float64 {
	out := make([]float64, len(iters))
	for i, it := range iters {
		out[i] = it.wall.Seconds()
	}
	return out
}

// endToEndMetrics reduces the iterations to the end-to-end metrics: medians
// over iterations for wall, CPU and peak heap; percentiles over every
// operation of every iteration for the latencies.
func endToEndMetrics(iters []iteration, setup float64) map[string]float64 {
	var cpus, heaps []float64
	var ops []time.Duration
	for _, it := range iters {
		cpus = append(cpus, it.cpu.Seconds())
		heaps = append(heaps, it.peakHeap/(1<<20))
		ops = append(ops, it.ops...)
	}
	tailV, _ := tail(durationsMS(ops))
	return map[string]float64{
		"wall_s":        median(iterWalls(iters)),
		"cpu_s":         median(cpus),
		"setup_s":       setup,
		"peak_heap_mib": median(heaps),
		"op_p50_ms":     median(durationsMS(ops)),
		"op_tail_ms":    tailV,
	}
}

// readLatencies returns the p50, the tail, and the worst generator lag of
// the serving reads in iters (all zero when the workload has no reads).
func readLatencies(iters []iteration) (p50, tailV, lag float64) {
	var reads []time.Duration
	var lags []float64
	for _, it := range iters {
		reads = append(reads, it.reads...)
		lags = append(lags, ms(it.readLag))
	}
	if len(reads) == 0 {
		return 0, 0, 0
	}
	tailV, _ = tail(durationsMS(reads))
	return median(durationsMS(reads)), tailV, median(lags)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable table — every end-to-end metric the
// workload defines, the error rate and the failures — then the JSON result
// holding exactly the metrics in defs.
func report(stdout io.Writer, iters []iteration, values map[string]float64, defs []metricDef) error {
	res := result{Metrics: map[string]metric{}}
	var failures []string
	for _, it := range iters {
		res.Attempted += it.attempted
		res.Failed += it.failed
		failures = append(failures, it.failures...)
	}
	res.Correct = res.Failed == 0
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	fmt.Fprintf(stdout, "# iterations=%d attempted=%d failed=%d error_rate=%.6g correct=%v\n",
		len(iters), res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.Correct)
	walls := make([]string, len(iters))
	for i, it := range iters {
		walls[i] = fmt.Sprintf("%.3f", it.wall.Seconds())
	}
	fmt.Fprintf(stdout, "# iteration walls (s): %s\n", strings.Join(walls, " "))
	printLatencyLines(stdout, iters)
	for i, f := range failures {
		if i == 20 {
			fmt.Fprintf(stdout, "# failure ... and %d more\n", len(failures)-i)
			break
		}
		fmt.Fprintf(stdout, "# failure %s\n", f)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", d.name)
		}
		fmt.Fprintf(stdout, "# %-30s %14.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// printLatencyLines states the operation and read latency percentiles,
// including which percentile each tail is.
func printLatencyLines(stdout io.Writer, iters []iteration) {
	var ops, reads []time.Duration
	for _, it := range iters {
		ops = append(ops, it.ops...)
		reads = append(reads, it.reads...)
	}
	if len(ops) > 0 {
		v, p := tail(durationsMS(ops))
		fmt.Fprintf(stdout, "# op latency: n=%d p50=%.4gms tail=p%.1f=%.4gms\n", len(ops), median(durationsMS(ops)), p, v)
	}
	if len(reads) > 0 {
		v, p := tail(durationsMS(reads))
		fmt.Fprintf(stdout, "# read latency: n=%d p50=%.4gms tail=p%.1f=%.4gms\n", len(reads), median(durationsMS(reads)), p, v)
	}
}

// cpuModel returns the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
