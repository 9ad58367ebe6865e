package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"mictrend/internal/kalman"
	"mictrend/internal/obs"
	"mictrend/internal/ssm"
)

// probe collects one traced iteration's per-layer evidence: the program's
// own spans and counters (through the public Trace and Metrics hooks), the
// benchmark's spans around each public call, process CPU over the detect
// stage, and runtime deltas. It adds no instrumentation inside the program.
type probe struct {
	tracer *obs.Tracer
	reg    *obs.Registry

	mu     sync.Mutex
	nextID int64

	// Process CPU over every detect stage of the iteration, bracketed by
	// the pipeline's synchronous StageStart/StageEnd events.
	detectCPU   time.Duration
	detectBegan time.Duration

	rt0              []float64
	gcFrac, allocMiB float64

	// Facts the workload records while it runs.
	records         int
	monthsNeeded    int // months the checkpoint store could have served
	detectionsBytes int
	readService     []float64 // idle /v1/detections latencies, ms
}

var runtimeDeltas = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func newProbe() *probe {
	return &probe{tracer: obs.NewTracer(), reg: obs.NewRegistry(), rt0: readRuntime(runtimeDeltas...)}
}

func (p *probe) finish() {
	rt := readRuntime(runtimeDeltas...)
	p.gcFrac = ratio(rt[0]-p.rt0[0], rt[1]-p.rt0[1])
	p.allocMiB = (rt[2] - p.rt0[2]) / (1 << 20)
}

// benchLane is the trace track of the benchmark's own spans, apart from the
// program's lanes (obs.LaneStage … obs.LaneServe).
const benchLane = 10

// span opens a benchmark span under parent (0 for a root) and returns its
// id and closer. The closed span goes into the probe's tracer beside the
// program's spans, on benchLane with category "bench", its id and parent
// leading its detail. A nil probe records nothing.
func (p *probe) span(name string, parent int64, detail string) (int64, func()) {
	if p == nil {
		return 0, func() {}
	}
	p.mu.Lock()
	p.nextID++
	id := p.nextID
	p.mu.Unlock()
	if detail != "" {
		detail = " " + detail
	}
	detail = fmt.Sprintf("id=%d parent=%d%s", id, parent, detail)
	start := time.Now()
	return id, func() {
		p.tracer.Observe(obs.SpanEvent{
			Cat: "bench", Name: name, TID: benchLane,
			Start: start, Duration: time.Since(start), Month: -1, Detail: detail,
		})
	}
}

// observe brackets the detect stage with process CPU readings; the pipeline
// delivers stage events synchronously at the stage boundaries.
func (p *probe) observe(e obs.Event) {
	if p == nil || e.Stage != "detect" {
		return
	}
	switch e.Kind {
	case obs.StageStart:
		p.detectBegan = cpuTime()
	case obs.StageEnd:
		p.detectCPU += cpuTime() - p.detectBegan
	}
}

// spanTotal sums the durations of the benchmark spans with any of names.
func (p *probe) spanTotal(names ...string) time.Duration {
	var total time.Duration
	for _, s := range p.tracer.Spans() {
		for _, n := range names {
			if s.Cat == "bench" && s.Name == n {
				total += s.Duration
			}
		}
	}
	return total
}

// layerMetrics computes the per-layer metrics of each traced iteration and
// returns their medians (counts are identical across iterations). usPerEval
// is the kernel timing shared by every iteration.
func layerMetrics(probes []*probe, usPerEval float64, workers int) map[string]float64 {
	per := make([]map[string]float64, len(probes))
	for i, p := range probes {
		per[i] = p.metrics(usPerEval, workers)
	}
	out := map[string]float64{}
	for name := range per[0] {
		vals := make([]float64, len(per))
		for i, m := range per {
			vals[i] = m[name]
		}
		out[name] = median(vals)
	}
	return out
}

func (p *probe) metrics(usPerEval float64, workers int) map[string]float64 {
	c := p.reg.Snapshot().Counters
	spans := p.tracer.Spans()
	stage := map[string]time.Duration{}
	var seriesMS []float64
	var seriesSum time.Duration
	for _, s := range spans {
		switch {
		case s.Cat == "stage":
			stage[s.Name] += s.Duration
		case s.Name == "detect/series" && s.Duration > 0:
			seriesSum += s.Duration
			seriesMS = append(seriesMS, ms(s.Duration))
		}
	}
	steps := serveSteps(spans)
	detect := stage["stage/detect"]
	fits := float64(c["scan/fits"])
	evals := float64(c["ssm/lik_evals"])
	series := float64(c["scan/series"])
	var seriesMax float64
	for _, v := range seriesMS {
		seriesMax = math.Max(seriesMax, v)
	}
	idle := 1 - ratio(seriesSum.Seconds(), float64(workers)*detect.Seconds())
	identity := ratio(math.Abs(evals*usPerEval*1e-6-p.detectCPU.Seconds()), p.detectCPU.Seconds())
	return map[string]float64{
		"mic.decode_s":                p.spanTotal("mic.ReadColumnar", "mic.ReadAuto").Seconds(),
		"mic.filter_s":                p.spanTotal("mic.FilterDataset").Seconds(),
		"mic.records":                 float64(p.records),
		"medmodel.fitall_s":           stage["stage/model"].Seconds(),
		"medmodel.em_iterations":      float64(c["em/iterations"]),
		"medmodel.reproduce_s":        stage["stage/reproduce"].Seconds(),
		"medmodel.ckpt_reuse_ratio":   ratio(float64(c["trend/ckpt_months_reused"]), float64(p.monthsNeeded)),
		"trend.detect_s":              detect.Seconds(),
		"trend.series":                series,
		"trend.series_p50_ms":         median(seriesMS),
		"trend.series_max_ms":         seriesMax,
		"trend.detect_idle_frac":      math.Min(1, math.Max(0, idle)),
		"changepoint.fits":            fits,
		"changepoint.fits_per_series": ratio(fits, series),
		"changepoint.candidates":      float64(c["scan/candidates"]),
		"changepoint.fit_ratio":       ratio(fits, float64(c["scan/candidates"])),
		"changepoint.prefix_resumes":  float64(c["scan/prefix_resumes"]),
		"ssm.lik_evals":               evals,
		"ssm.evals_per_fit":           ratio(evals, fits),
		"ssm.restarts":                float64(c["ssm/restarts"]),
		"ssm.fit_failures":            float64(c["ssm/fit_failures"]),
		"kalman.us_per_eval":          usPerEval,
		"kalman.steady_share":         ratio(float64(c["kalman/steady_hits"]), evals),
		"kalman.identity_residual":    identity,
		"serve.queue_ms":              median(steps["queue"]),
		"serve.fold_ms":               median(steps["fold"]),
		"serve.checkpoint_ms":         median(steps["checkpoint"]),
		"serve.wal_ms":                median(steps["wal"]),
		"serve.detect_ms":             median(steps["detect"]),
		"serve.publish_ms":            median(steps["publish"]),
		"serve.detections_bytes":      float64(p.detectionsBytes),
		"serve.read_service_ms":       median(p.readService),
		"runtime.gc_cpu_frac":         p.gcFrac,
		"runtime.alloc_mib":           p.allocMiB,
	}
}

// serveSteps splits each ingested month's trip through the core into its
// steps, in milliseconds, one value per month. The lineage spans end at the
// core's durable points, which do not fall between the steps their names
// suggest: serve/fold ends once the month file is durable, serve/checkpoint
// ends once the WAL record is, and serve/wal ends at the publish, so it
// holds reproduction and detection. The steps are cut from those spans and
// from the pipeline's spans inside them:
//
//	queue       serve/queue: admission to fold pickup
//	fold        fold pickup to the end of the month's em/month fit
//	checkpoint  the fit's end to the end of serve/fold: the month file
//	wal         serve/checkpoint: the WAL append and its fsync
//	detect      the fold's stage/detect span inside serve/wal
//	publish     the end of that detect stage to the epoch publish
func serveSteps(spans []obs.SpanEvent) map[string][]float64 {
	lineage := map[int]map[string]obs.SpanEvent{}
	fitEnd := map[int][]time.Time{}
	var detects []obs.SpanEvent
	for _, s := range spans {
		switch {
		case s.Cat == "serve":
			if lineage[s.Month] == nil {
				lineage[s.Month] = map[string]obs.SpanEvent{}
			}
			lineage[s.Month][s.Name] = s
		case s.Name == "em/month":
			fitEnd[s.Month] = append(fitEnd[s.Month], s.Start.Add(s.Duration))
		case s.Name == "stage/detect":
			detects = append(detects, s)
		}
	}
	within := func(t time.Time, s obs.SpanEvent) bool {
		return !t.Before(s.Start) && !t.After(s.Start.Add(s.Duration))
	}
	out := map[string][]float64{}
	for month, l := range lineage {
		queue, okQ := l["serve/queue"]
		fold, okF := l["serve/fold"]
		wal, okW := l["serve/checkpoint"]
		rest, okR := l["serve/wal"]
		if !okQ || !okF || !okW || !okR {
			continue // a failed fold has no durable points to cut at
		}
		out["queue"] = append(out["queue"], ms(queue.Duration))
		out["wal"] = append(out["wal"], ms(wal.Duration))
		for _, end := range fitEnd[month] {
			if within(end, fold) {
				out["fold"] = append(out["fold"], ms(end.Sub(fold.Start)))
				out["checkpoint"] = append(out["checkpoint"], ms(fold.Start.Add(fold.Duration).Sub(end)))
				break
			}
		}
		for _, d := range detects {
			end := d.Start.Add(d.Duration)
			if within(d.Start, rest) && within(end, rest) {
				out["detect"] = append(out["detect"], ms(d.Duration))
				out["publish"] = append(out["publish"], ms(rest.Start.Add(rest.Duration).Sub(end)))
				break
			}
		}
	}
	return out
}

// timeLikelihood fits the workload's model, with a change point at mid
// series as most candidate fits carry one, to y and times
// (*kalman.Model).LogLikFilter with a reused workspace — the unit
// BenchmarkKalmanLogLik/workspace measures — returning the median
// microseconds per evaluation over batches spanning about 500 ms.
func timeLikelihood(y []float64, seasonal bool) (float64, error) {
	fit, err := ssm.FitConfig(y, ssm.Config{Seasonal: seasonal, ChangePoint: len(y) / 2})
	if err != nil {
		return 0, err
	}
	m, scaled := fit.Model, fit.Scaled
	ws := kalman.NewWorkspace()
	if _, err := m.LogLikFilter(scaled, ws); err != nil {
		return 0, err
	}
	const batch = 50
	var perEval []float64
	deadline := time.Now().Add(500 * time.Millisecond)
	for len(perEval) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := m.LogLikFilter(scaled, ws); err != nil {
				return 0, err
			}
		}
		perEval = append(perEval, float64(time.Since(t0).Microseconds())/batch)
	}
	return median(perEval), nil
}

// writeTrace writes one iteration's spans, the benchmark's and the
// program's together, as Chrome Trace JSON.
func writeTrace(path string, p *probe) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.tracer.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
