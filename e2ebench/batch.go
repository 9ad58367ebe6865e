package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"

	"mictrend/internal/changepoint"
	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/obs"
	"mictrend/internal/trend"
)

// batch is a batch workload: MICC1 bytes in memory go to mic.ReadColumnar
// and then to trend.Analyze. One operation is one series; a degraded series
// or a selection that differs from the reference counts as failed.
type batch struct {
	cfg  config
	gen  micgen.Config
	opts trend.Options
	// maxSeries, when positive, raises MinSeriesTotal per seed to the total
	// of the smallest prescription pair that keeps the scanned series count
	// (pairs plus their disease and medicine marginals) at most maxSeries,
	// so every seed scans a similar amount of work.
	maxSeries int
	// oracle selects the reference: the serial changepoint.Exact scan of
	// every series when true, a Workers: 1 trend.Analyze when false.
	oracle bool
	// shuffle, when set, keeps the corpus content fixed (gen.Seed) and
	// lets the run's seed shuffle the record order within each month.
	shuffle bool

	col     []byte // the MICC1 image
	records int
	ref     map[string]int // series key → reference change point
	largest []float64      // the reference series with the largest total
}

// baselineSeed is the micgen seed of the ROADMAP baseline corpus (the
// trendscan -generate default).
const baselineSeed = 7

// newScanSeasonal: the seasonal exact prefix scan of the high-volume
// series of the ROADMAP baseline corpus (43 months × 2000 records). Which
// series a scan fits how often depends strongly on their content, so the
// content stays the baseline's and the run's seed shuffles record order:
// every seed reproduces the series through a different summation order
// while the work stays comparable across seeds.
func newScanSeasonal(cfg config, small bool) *batch {
	b := &batch{
		cfg:       cfg,
		gen:       micgen.Config{Seed: baselineSeed, Months: 43, RecordsPerMonth: 2000},
		maxSeries: 16,
		oracle:    true,
		shuffle:   true,
	}
	if cfg.corpusSeed != 0 {
		b.gen.Seed = cfg.corpusSeed
	}
	if small {
		b.gen.Months, b.gen.RecordsPerMonth, b.maxSeries = 24, 300, 3
	}
	b.opts = trend.DefaultOptions()
	b.opts.Method = trend.MethodExact
	b.opts.Seasonal = true
	b.opts.Workers = cfg.workers
	return b
}

// newCorpusBulk: a paper-shaped vocabulary (1.5k bulk diseases and
// medicines) analysed non-seasonally with the binary search. The content
// is fixed and the seed shuffles record order, as on scan-seasonal: across
// content seeds the series count ranged from 119 to 163, a change in work
// that no code change could be told apart from.
func newCorpusBulk(cfg config, small bool) *batch {
	b := &batch{
		cfg:     cfg,
		gen:     micgen.Config{Seed: baselineSeed, Months: 24, RecordsPerMonth: 8000, BulkDiseases: 1500, BulkMedicines: 1500},
		shuffle: true,
	}
	if cfg.corpusSeed != 0 {
		b.gen.Seed = cfg.corpusSeed
	}
	b.opts = trend.DefaultOptions()
	b.opts.Method = trend.MethodBinary
	b.opts.Seasonal = false
	b.opts.MinSeriesTotal = 400
	b.opts.Workers = cfg.workers
	if small {
		b.gen.Months, b.gen.RecordsPerMonth, b.gen.BulkDiseases, b.gen.BulkMedicines = 12, 400, 40, 40
		b.opts.MinSeriesTotal = 60
	}
	return b
}

func (b *batch) generate() error {
	ds, _, err := micgen.Generate(b.gen)
	if err != nil {
		return err
	}
	if b.shuffle {
		shuffleRecords(ds, b.cfg.seed)
	}
	var buf bytes.Buffer
	if err := mic.WriteColumnar(&buf, ds, mic.ColumnarWriterOptions{}); err != nil {
		return err
	}
	b.col = buf.Bytes()
	b.records = countRecords(ds)
	return nil
}

func (b *batch) decode() (*mic.Dataset, error) {
	return mic.ReadColumnar(bytes.NewReader(b.col), int64(len(b.col)), mic.ColumnarReadOptions{})
}

func (b *batch) reference() error {
	ds, err := b.decode()
	if err != nil {
		return err
	}
	if !b.oracle {
		o := b.opts
		o.Workers = 1
		a, err := trend.Analyze(context.Background(), ds, o)
		if err != nil {
			return err
		}
		if len(a.Failures) > 0 {
			return fmt.Errorf("reference analysis degraded: %v", a.Failures[0])
		}
		b.ref = map[string]int{}
		for _, det := range detections(a) {
			b.ref[det.Key().String()] = det.Result.ChangePoint
			if sum(det.Series) > sum(b.largest) {
				b.largest = det.Series
			}
		}
		return nil
	}
	series, err := b.reproduce(ds)
	if err != nil {
		return err
	}
	b.opts.MinSeriesTotal = pickMinTotal(series, b.maxSeries)
	jobs := seriesJobs(series.FilterMinTotal(b.opts.MinSeriesTotal))
	b.ref, err = exactOracle(jobs, b.opts.Seasonal, b.cfg.workers)
	for _, j := range jobs {
		if sum(j.y) > sum(b.largest) {
			b.largest = j.y
		}
	}
	return err
}

// reproduce runs the model stage the way the pipeline does — filter, EM
// FitAll with cooccurrence fallbacks, parallel reproduction — through the
// layers' public functions.
func (b *batch) reproduce(ds *mic.Dataset) (*medmodel.SeriesSet, error) {
	filtered := mic.FilterDataset(ds, mic.FilterOptions{MinMonthlyFreq: b.opts.MinMonthlyFreq})
	models, fails, err := medmodel.FitAll(context.Background(), filtered, medmodel.FitOptions{Workers: b.cfg.workers})
	if err != nil {
		return nil, err
	}
	for _, f := range fails {
		models[f.Month] = medmodel.FallbackModel(filtered.Months[f.Month], filtered.Medicines.Len())
	}
	return medmodel.ReproduceParallel(filtered, models, b.cfg.workers)
}

type seriesJob struct {
	key string
	y   []float64
}

// seriesJobs lists every series of s under its pipeline key.
func seriesJobs(s *medmodel.SeriesSet) []seriesJob {
	var jobs []seriesJob
	for _, d := range s.Diseases() {
		jobs = append(jobs, seriesJob{trend.SeriesKey{Kind: trend.KindDisease, Disease: d}.String(), s.Disease(d)})
	}
	for _, m := range s.Medicines() {
		jobs = append(jobs, seriesJob{trend.SeriesKey{Kind: trend.KindMedicine, Medicine: m}.String(), s.Medicine(m)})
	}
	for p, y := range s.Pairs {
		jobs = append(jobs, seriesJob{trend.SeriesKey{Kind: trend.KindPrescription, Disease: p.Disease, Medicine: p.Medicine}.String(), y})
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].key < jobs[b].key })
	return jobs
}

// pickMinTotal returns the smallest pair total whose filter keeps at most
// maxSeries series, counting each kept pair plus the distinct diseases and
// medicines it brings.
func pickMinTotal(s *medmodel.SeriesSet, maxSeries int) float64 {
	type pairTotal struct {
		p     mic.Pair
		total float64
	}
	pairs := make([]pairTotal, 0, len(s.Pairs))
	for p, y := range s.Pairs {
		pairs = append(pairs, pairTotal{p, sum(y)})
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].total != pairs[b].total {
			return pairs[a].total > pairs[b].total
		}
		if pairs[a].p.Disease != pairs[b].p.Disease {
			return pairs[a].p.Disease < pairs[b].p.Disease
		}
		return pairs[a].p.Medicine < pairs[b].p.Medicine
	})
	diseases := map[mic.DiseaseID]bool{}
	medicines := map[mic.MedicineID]bool{}
	minTotal := pairs[0].total
	for i, pt := range pairs {
		diseases[pt.p.Disease] = true
		medicines[pt.p.Medicine] = true
		if i+1+len(diseases)+len(medicines) > maxSeries {
			break
		}
		minTotal = pt.total
	}
	return minTotal
}

// exactOracle runs the serial Algorithm 1 scan (changepoint.SearchExact)
// on every job, spread over workers goroutines, and returns each series'
// selected change point.
func exactOracle(jobs []seriesJob, seasonal bool, workers int) (map[string]int, error) {
	ref := make(map[string]int, len(jobs))
	var mu sync.Mutex
	var firstErr error
	next := make(chan seriesJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				res, err := changepoint.Detect(context.Background(), j.y, changepoint.DetectOptions{
					Method: changepoint.SearchExact, Seasonal: seasonal,
				})
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle scan of %s: %w", j.key, err)
				}
				ref[j.key] = res.ChangePoint
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return ref, firstErr
}

func (b *batch) iterate(p *probe) (iteration, error) {
	var it iteration
	var mu sync.Mutex
	opts := b.opts
	opts.Observer = func(e obs.Event) {
		p.observe(e)
		if e.Kind == obs.SeriesDone {
			mu.Lock()
			it.ops = append(it.ops, e.Duration)
			mu.Unlock()
		}
	}
	if p != nil {
		opts.Trace = p.tracer.Observe
		opts.Metrics = p.reg
		p.records = b.records
	}

	tm := beginTimed()
	iterID, endIter := p.span("iteration", 0, b.cfg.workload)
	_, endRead := p.span("mic.ReadColumnar", iterID, fmt.Sprintf("%d bytes", len(b.col)))
	ds, err := b.decode()
	endRead()
	if err != nil {
		tm.end()
		return it, err
	}
	_, endAnalyze := p.span("trend.Analyze", iterID, "")
	a, err := trend.Analyze(context.Background(), ds, opts)
	endAnalyze()
	endIter()
	it.wall, it.cpu, it.peakHeap = tm.end()
	if err != nil {
		return it, err
	}
	if p != nil {
		// The pipeline filters inside Analyze without a span of its own, so
		// the benchmark times the same public call apart, after the timed
		// region.
		_, endFilter := p.span("mic.FilterDataset", 0, "timed apart from Analyze")
		mic.FilterDataset(ds, mic.FilterOptions{MinMonthlyFreq: opts.MinMonthlyFreq})
		endFilter()
	}
	b.check(a, &it)
	return it, nil
}

// check compares an analysis with the reference, one operation per series.
func (b *batch) check(a *trend.Analysis, it *iteration) {
	got := map[string]int{}
	for _, det := range detections(a) {
		got[det.Key().String()] = det.Result.ChangePoint
	}
	it.attempted = len(b.ref)
	fail := func(format string, args ...any) {
		it.failed++
		it.failures = append(it.failures, fmt.Sprintf(format, args...))
	}
	degraded := map[string]bool{}
	for _, f := range a.Failures {
		fail("degraded: %v", f)
		key := f.Key().String()
		if _, ok := b.ref[key]; ok && (f.Stage == trend.StageDetect || f.Stage == trend.StageValidate) {
			degraded[key] = true
		} else {
			it.attempted++ // a degraded unit outside the reference series
		}
	}
	for key, want := range b.ref {
		g, ok := got[key]
		switch {
		case !ok && !degraded[key]:
			fail("%s: missing from the analysis", key)
		case ok && g != want:
			fail("%s: change point %d, reference %d", key, g, want)
		}
	}
	for key := range got {
		if _, ok := b.ref[key]; !ok {
			it.attempted++
			fail("%s: not in the reference", key)
		}
	}
}

func (b *batch) kalmanSeries() ([]float64, bool) { return b.largest, b.opts.Seasonal }

func (b *batch) shape() string {
	return fmt.Sprintf("corpus_seed=%d months=%d records=%d micc1_bytes=%d series=%d min_series_total=%.6g method=%v seasonal=%v",
		b.gen.Seed, b.gen.Months, b.records, len(b.col), len(b.ref), b.opts.MinSeriesTotal, b.opts.Method, b.opts.Seasonal)
}

func detections(a *trend.Analysis) []trend.Detection {
	out := append([]trend.Detection(nil), a.Diseases...)
	out = append(out, a.Medicines...)
	return append(out, a.Prescriptions...)
}

// shuffleRecords permutes the records of every month, seeded by seed.
func shuffleRecords(ds *mic.Dataset, seed uint64) {
	for t, m := range ds.Months {
		rng := rand.New(rand.NewPCG(seed, uint64(t)))
		rng.Shuffle(len(m.Records), func(i, j int) { m.Records[i], m.Records[j] = m.Records[j], m.Records[i] })
	}
}

func countRecords(ds *mic.Dataset) int {
	n := 0
	for _, m := range ds.Months {
		n += len(m.Records)
	}
	return n
}

func sum(y []float64) float64 {
	var s float64
	for _, v := range y {
		s += v
	}
	return s
}
