package medmodel

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"mictrend/internal/faultpoint"
	"mictrend/internal/mic"
	"mictrend/internal/obs"
)

// FitOptions tunes the EM loop.
type FitOptions struct {
	// MaxIter bounds EM iterations (default 50).
	MaxIter int
	// Tol is the relative log-likelihood improvement below which EM stops
	// (default 1e-6).
	Tol float64
	// Workers bounds FitAll's concurrency across months (default
	// GOMAXPROCS). Fit itself is single-threaded.
	Workers int
	// PriorWeight, when positive, chains a Dirichlet prior across months
	// (the paper's §IX Dynamic Topic Model direction): FitAll fits months
	// serially, each month's φ carrying a prior centered at the previous
	// month's fitted distributions with this concentration (pseudo-count
	// mass per disease). The zero value disables the prior — months are
	// independent and fitted in parallel.
	PriorWeight float64
	// Observer, when non-nil, receives one obs.MonthFitted event per month
	// from FitAll, delivered in ascending month order for any worker count.
	// A panicking Observer silently loses its remaining events (wrap with
	// obs.Guard to intercept the panic); it never crashes a fit worker.
	Observer obs.Observer
	// Metrics, when non-nil, collects EM instrumentation: per-month
	// iteration counts and the timing of each fused EM sweep. Nil costs
	// nothing on the fit path.
	Metrics *obs.Registry
	// Trace, when non-nil, receives one "em/month" span per month from
	// FitAll, timed around the month's fit and emitted in ascending month
	// order for any worker count (the same Sequencer that orders Observer
	// events). A nil Trace costs nothing — no clock reads, no allocations.
	Trace obs.SpanObserver
	// TraceConvergence records each month's per-iteration log-likelihood in
	// Model.LogLikTrace, the EM convergence evidence the explain artifacts
	// export. Off (the default) the fit loop stores only the final value and
	// allocates no trace.
	TraceConvergence bool
	// InitialPrior seeds the smoothed chain's first month (PriorWeight > 0
	// only): FitAll centers month 0's Dirichlet prior at this model instead
	// of starting the chain cold. A checkpoint-resumed analysis passes the
	// last reused posterior here so the continued chain is bit-identical to
	// one that never stopped. Ignored when PriorWeight is zero.
	InitialPrior *Model
}

// WithDefaults returns the options with the EM loop defaults filled in, the
// exact values Fit and FitAll use; exposed so checkpoint fingerprints hash
// the effective configuration rather than the zero values.
func (o FitOptions) WithDefaults() FitOptions { return o.withDefaults() }

func (o FitOptions) withDefaults() FitOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// support is the Eq. 10 cooccurrence support of one month's records in CSR
// form: diseases ascending, row d holding its medicines ascending in
// rowMed[rowStart[d]:rowStart[d+1]], with the matching φ values in val.
type support struct {
	diseases []mic.DiseaseID
	rowStart []int
	rowMed   []mic.MedicineID
	val      []float64
}

// newSupport builds the cooccurrence support and its Eq. 10 estimate without
// maps. It writes one (disease, medicine) key per disease entry × medicine
// occurrence and radix-sorts the keys; each run of equal keys is one support
// entry, and the run's length is its cooccurrence count. Counts and row sums
// are exact integers, so φ₀ = count/rowSum does not depend on the order they
// were counted in. The key buffers are garbage once this returns.
func newSupport(recs []*mic.Record) support {
	n := 0
	for _, r := range recs {
		n += len(r.Diseases) * len(r.Medicines)
	}
	keys := make([]uint64, 0, n)
	for _, r := range recs {
		for _, dc := range r.Diseases {
			for _, med := range r.Medicines {
				keys = append(keys, pairKey(dc.Disease, med))
			}
		}
	}
	keys = radixSortKeys(keys, make([]uint64, n))
	entries, rows := 0, 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			entries++
			if i == 0 || k>>32 != keys[i-1]>>32 {
				rows++
			}
		}
	}
	s := support{
		diseases: make([]mic.DiseaseID, 0, rows),
		rowStart: make([]int, 0, rows+1),
		rowMed:   make([]mic.MedicineID, 0, entries),
		val:      make([]float64, 0, entries),
	}
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			s.val[len(s.val)-1]++
			continue
		}
		p := keyPair(k)
		if i == 0 || k>>32 != keys[i-1]>>32 {
			s.diseases = append(s.diseases, p.Disease)
			s.rowStart = append(s.rowStart, len(s.rowMed))
		}
		s.rowMed = append(s.rowMed, p.Medicine)
		s.val = append(s.val, 1)
	}
	s.rowStart = append(s.rowStart, len(s.rowMed))
	for d := range s.diseases {
		row := s.val[s.rowStart[d]:s.rowStart[d+1]]
		var sum float64
		for _, c := range row {
			sum += c
		}
		for i := range row {
			row[i] /= sum
		}
	}
	return s
}

// radixSortKeys sorts a with the LSD radix sort of radixSort, on bare keys,
// using tmp (as long as a) as the other buffer. It is a copy rather than a
// shared generic with a key function because the indirect key call made
// reproduction's sort measurably slower.
func radixSortKeys(a, tmp []uint64) []uint64 {
	var count [8][256]int
	for _, k := range a {
		for b := range count {
			count[b][byte(k>>(8*b))]++
		}
	}
	for b := range count {
		n := &count[b]
		if len(a) == 0 || n[byte(a[0]>>(8*b))] == len(a) {
			continue
		}
		sum := 0
		for i, k := range n {
			n[i] = sum
			sum += k
		}
		for _, k := range a {
			i := byte(k >> (8 * b))
			tmp[n[i]] = k
			n[i]++
		}
		a, tmp = tmp, a
	}
	return a
}

// phiMap converts the dense rows back to the public map representation,
// dropping rows and entries that carry no mass (mirroring the sparsity the
// map-based accumulation produced).
func (s *support) phiMap() map[mic.DiseaseID]map[mic.MedicineID]float64 {
	out := make(map[mic.DiseaseID]map[mic.MedicineID]float64, len(s.diseases))
	for di, d := range s.diseases {
		lo, hi := s.rowStart[di], s.rowStart[di+1]
		var row map[mic.MedicineID]float64
		for i := lo; i < hi; i++ {
			if s.val[i] <= 0 {
				continue
			}
			if row == nil {
				row = make(map[mic.MedicineID]float64, hi-lo)
			}
			row[s.rowMed[i]] = s.val[i]
		}
		if row != nil {
			out[d] = row
		}
	}
	return out
}

// emIndex is the dense-indexed view of one month's usable records, built
// once per Fit so the EM iterations run as flat array arithmetic: φ lives in
// the support's rows (val is the current iterate), and every (medicine
// occurrence, disease) pair the E-step touches is resolved to its position
// in val ahead of time.
type emIndex struct {
	support
	next   []float64 // Eq. 5 numerator accumulator
	rowSum []float64 // Eq. 5 denominator accumulator, per disease

	// Per-record dense θ (Eq. 2) in first-occurrence order, for the records
	// with at least one slot: record r owns slots [thetaStart[r],
	// thetaStart[r+1]) and numMeds[r] medicine occurrences.
	thetaStart []int
	thetaDis   []int32 // disease row per slot
	thetaVal   []float64
	numMeds    []int

	// Occurrence table, records in order: record r's o-th occurrence and
	// slot s map to the next pos entry, an index into val. Every disease of
	// a usable record cooccurs with the record's medicines, so each slot has
	// a row and each (slot, occurrence) pair is in the support.
	pos []int32

	w []float64 // θ·φ per slot of the current occurrence
}

// newEMIndex interns the records against the cooccurrence support (which
// also provides the φ initialization, Eq. 10).
func newEMIndex(recs []*mic.Record) *emIndex {
	ix := &emIndex{support: newSupport(recs)}
	ix.next = make([]float64, len(ix.val))
	ix.rowSum = make([]float64, len(ix.diseases))
	entries, occs := 0, 0
	for _, r := range recs {
		entries += len(r.Diseases)
		occs += len(r.Diseases) * len(r.Medicines)
	}
	ix.thetaStart = make([]int, 1, len(recs)+1)
	ix.numMeds = make([]int, 0, len(recs))
	ix.thetaDis = make([]int32, 0, entries)
	ix.thetaVal = make([]float64, 0, entries)
	ix.pos = make([]int32, 0, occs)
	var dis []mic.DiseaseID // the record's distinct diseases, first-occurrence order
	maxSlots := 0
	for _, rec := range recs {
		n := rec.NumDiseaseMentions()
		if n <= 0 {
			continue
		}
		// θ_rd accumulated per entry in record order, as Theta does.
		ts := len(ix.thetaVal)
		dis = dis[:0]
		for _, dc := range rec.Diseases {
			s := slices.Index(dis, dc.Disease)
			if s < 0 {
				s = len(dis)
				dis = append(dis, dc.Disease)
				di, _ := slices.BinarySearch(ix.diseases, dc.Disease)
				ix.thetaDis = append(ix.thetaDis, int32(di))
				ix.thetaVal = append(ix.thetaVal, 0)
			}
			ix.thetaVal[ts+s] += float64(dc.Count) / float64(n)
		}
		ix.thetaStart = append(ix.thetaStart, len(ix.thetaVal))
		ix.numMeds = append(ix.numMeds, len(rec.Medicines))
		for _, med := range rec.Medicines {
			for _, di := range ix.thetaDis[ts:] {
				lo, hi := ix.rowStart[di], ix.rowStart[di+1]
				j, _ := slices.BinarySearch(ix.rowMed[lo:hi], med)
				ix.pos = append(ix.pos, int32(lo+j))
			}
		}
		maxSlots = max(maxSlots, len(dis))
	}
	ix.w = make([]float64, maxSlots)
	return ix
}

// estep distributes each medicine occurrence across its record's diseases
// proportionally to θ_rd·φ_dm (Eq. 6) into the Eq. 5 accumulators. The
// per-occurrence normaliser Σ_s θ_s·φ_{d_s m} is the occurrence's
// probability, so with logLik set it also returns the Φ part of Eq. 3 under
// the current φ.
func (ix *emIndex) estep(logLik bool) float64 {
	clear(ix.next)
	clear(ix.rowSum)
	var ll float64
	pos := ix.pos
	for r, nm := range ix.numMeds {
		ts, te := ix.thetaStart[r], ix.thetaStart[r+1]
		theta, dis := ix.thetaVal[ts:te], ix.thetaDis[ts:te]
		w := ix.w[:len(theta)]
		for range nm {
			blk := pos[:len(theta)]
			pos = pos[len(theta):]
			var denom float64
			for s, p := range blk {
				w[s] = theta[s] * ix.val[p]
				denom += w[s]
			}
			if logLik {
				p := denom
				if p <= 0 {
					p = math.SmallestNonzeroFloat64
				}
				ll += math.Log(p)
			}
			if denom <= 0 {
				continue
			}
			for s, p := range blk {
				q := w[s] / denom
				if q == 0 {
					continue
				}
				ix.next[p] += q
				ix.rowSum[dis[s]] += q
			}
		}
	}
	return ll
}

// mstep renormalizes every φ row from the E-step's accumulators (Eq. 5).
func (ix *emIndex) mstep() {
	for d, sum := range ix.rowSum {
		lo, hi := ix.rowStart[d], ix.rowStart[d+1]
		if sum <= 0 {
			// The row lost all mass: zero it, the dense-index equivalent of
			// deleting the map row (lookups read 0 either way).
			clear(ix.val[lo:hi])
			continue
		}
		for i := lo; i < hi; i++ {
			ix.val[i] = ix.next[i] / sum
		}
	}
}

// Fit estimates the latent-variable medication model for one month with the
// EM algorithm of §IV-C: θ is closed-form (Eq. 2), η is closed-form (Eq. 4),
// and Φ alternates with the responsibilities Q via Eqs. 5–6, starting from
// the cooccurrence estimate (which also fixes Φ's support: a (d, m) pair can
// only carry probability if it cooccurs in some record). The E/M sweep runs
// over a dense index interned once per call, so iterations are flat array
// arithmetic; the fitted Φ is converted back to the map representation the
// Model API exposes. Results are deterministic.
//
// Each iteration is an M-step followed by the next E-step, whose normalisers
// also give the log-likelihood of the φ the M-step produced; the first E-step
// runs on the cooccurrence start, and the last one's accumulators are
// discarded.
func Fit(month *mic.Monthly, vocabMedicines int, opts FitOptions) (*Model, error) {
	opts = opts.withDefaults()
	recs, err := usableRecords(month)
	if err != nil {
		return nil, err
	}

	ix := newEMIndex(recs)
	model := &Model{
		Eta: EstimateEta(month),
		M:   vocabMedicines,
	}

	// The timer resolves to nil when metrics are off, so the disabled loop
	// pays one pointer check per iteration, reads no clock and allocates
	// nothing.
	var tIterate *obs.Timer
	if m := opts.Metrics; m != nil {
		tIterate = m.Timer("time/em/iterate")
	}

	ix.estep(false)
	prevLL := math.Inf(-1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		var t0 time.Time
		if tIterate != nil {
			t0 = time.Now()
		}
		ix.mstep()
		ll := ix.estep(true)
		if tIterate != nil {
			tIterate.Observe(time.Since(t0))
		}
		model.Iterations = iter + 1
		model.LogLik = ll
		if opts.TraceConvergence {
			model.LogLikTrace = append(model.LogLikTrace, ll)
		}
		if prevLL != math.Inf(-1) {
			denom := math.Abs(prevLL)
			if denom == 0 {
				denom = 1
			}
			if (ll-prevLL)/denom < opts.Tol {
				break
			}
		}
		prevLL = ll
	}
	model.Phi = ix.phiMap()
	return model, nil
}

// MonthError records one month whose EM fit failed. FitAll reports failed
// months instead of aborting, so a run over many months degrades to the
// months that did fit.
type MonthError struct {
	// Month is the index of the failed month.
	Month int
	// Err is the fit error (for a crashed worker, the recovered panic value).
	Err error
	// Panicked reports whether the failure was a recovered worker panic
	// rather than a returned error.
	Panicked bool
}

// fitMonth fits one month with panic isolation: a crash inside the EM loop
// becomes an error confined to that month instead of a process abort.
func fitMonth(month *mic.Monthly, vocabMedicines int, opts FitOptions) (m *Model, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, panicked = nil, true
			err = fmt.Errorf("medmodel: month %d fit panicked: %v", month.Month, r)
		}
	}()
	if err := faultpoint.Inject("medmodel/fit-month", strconv.Itoa(month.Month)); err != nil {
		return nil, false, err
	}
	m, err = Fit(month, vocabMedicines, opts)
	return m, false, err
}

// fitAllInstruments carries FitAll's observability wiring: a sequencer that
// re-orders per-month completions into ascending month order, the guarded
// observer, and metric handles resolved once. A nil *fitAllInstruments (no
// observer, no metrics) costs one pointer check per month.
type fitAllInstruments struct {
	seq     *obs.Sequencer
	deliver obs.Observer
	trace   obs.SpanObserver
	total   int
	months  *obs.Counter   // em/months_fitted
	iters   *obs.Counter   // em/iterations
	hIters  *obs.Histogram // em/iterations_per_month
}

// newFitAllInstruments returns nil when opts carries no observer, no span
// sink, and no metrics registry.
func newFitAllInstruments(opts FitOptions, total int) *fitAllInstruments {
	if opts.Observer == nil && opts.Metrics == nil && opts.Trace == nil {
		return nil
	}
	ins := &fitAllInstruments{
		seq:     obs.NewSequencer(),
		deliver: obs.Guard(opts.Observer, nil),
		trace:   obs.GuardSpans(opts.Trace, nil),
		total:   total,
	}
	if m := opts.Metrics; m != nil {
		ins.months = m.Counter("em/months_fitted")
		ins.iters = m.Counter("em/iterations")
		ins.hIters = m.Histogram("em/iterations_per_month", 1, 2, 5, 10, 20, 50)
	}
	return ins
}

// began stamps a month fit's start, only when spans are on: the untraced
// path keeps its no-clock-read contract.
func (ins *fitAllInstruments) began() time.Time {
	if ins == nil || ins.trace == nil {
		return time.Time{}
	}
	return time.Now()
}

// monthDone accounts one finished month. Metric merges and event deliveries
// run in ascending month order regardless of which worker finished first,
// so registry snapshots and event streams are identical for any worker
// split. Safe from concurrent workers.
func (ins *fitAllInstruments) monthDone(ctx context.Context, i int, m *Model, err error, began time.Time) {
	if ins == nil {
		return
	}
	var dur time.Duration
	if ins.trace != nil {
		dur = time.Since(began)
	}
	ins.seq.Done(i, func() {
		if m != nil {
			ins.months.Inc()
			ins.iters.Add(int64(m.Iterations))
			ins.hIters.Observe(float64(m.Iterations))
		}
		if ins.trace != nil && ctx.Err() == nil {
			sp := obs.SpanEvent{
				Cat: "em", Name: "em/month", TID: obs.LaneEM,
				Start: began, Duration: dur, Month: i,
			}
			if m != nil {
				sp.Detail = "iters=" + strconv.Itoa(m.Iterations)
			}
			if err != nil {
				sp.Err = err.Error()
			}
			ins.trace(sp)
		}
		if ins.deliver == nil || ctx.Err() != nil {
			return
		}
		e := obs.Event{
			Kind: obs.MonthFitted, Stage: "model",
			Month: i, Done: i + 1, Total: ins.total,
		}
		if err != nil {
			e.Err = err.Error()
		}
		ins.deliver(e)
	})
}

// FitAll fits one model per month of the dataset. With a zero
// opts.PriorWeight months are independent and fitted concurrently by a
// bounded pool of opts.Workers goroutines (default GOMAXPROCS); the models
// are identical to those of a serial month-by-month loop. A positive
// PriorWeight switches to the inherently serial smoothed chain, each month's
// prior centered at the previous month's posterior.
//
// FitAll degrades rather than failing atomically: a month whose fit errors
// or panics leaves a nil entry in the returned slice and a MonthError
// (ascending by month), while every other month's model is still produced.
// The error return is reserved for cancellation — when ctx is cancelled the
// already-fitted models are returned alongside ctx's error, and no new month
// fits start.
func FitAll(ctx context.Context, d *mic.Dataset, opts FitOptions) ([]*Model, []MonthError, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.PriorWeight > 0 {
		return fitAllSmoothed(ctx, d, opts)
	}
	models := make([]*Model, d.T())
	errs := make([]error, len(d.Months))
	panicked := make([]bool, len(d.Months))
	ins := newFitAllInstruments(opts, len(d.Months))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(d.Months) {
		workers = len(d.Months)
	}
	if workers <= 1 {
		for i, month := range d.Months {
			if err := ctx.Err(); err != nil {
				return models, monthErrors(errs, panicked), err
			}
			began := ins.began()
			models[i], panicked[i], errs[i] = fitMonth(month, d.Medicines.Len(), opts)
			ins.monthDone(ctx, i, models[i], errs[i], began)
		}
	} else {
		in := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range in {
					if ctx.Err() != nil {
						continue // drain: cancelled before this month started
					}
					began := ins.began()
					models[i], panicked[i], errs[i] = fitMonth(d.Months[i], d.Medicines.Len(), opts)
					ins.monthDone(ctx, i, models[i], errs[i], began)
				}
			}()
		}
		for i := range d.Months {
			select {
			case in <- i:
			case <-ctx.Done():
			}
		}
		close(in)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return models, monthErrors(errs, panicked), err
	}
	return models, monthErrors(errs, panicked), nil
}

// fitAllSmoothed is FitAll's PriorWeight > 0 path: the serial smoothed
// chain with the same degradation contract — a failed month leaves a nil
// model and a MonthError while the chain continues from the last month that
// did fit (its posterior stays the prior).
func fitAllSmoothed(ctx context.Context, d *mic.Dataset, opts FitOptions) ([]*Model, []MonthError, error) {
	models := make([]*Model, d.T())
	errs := make([]error, len(d.Months))
	panicked := make([]bool, len(d.Months))
	ins := newFitAllInstruments(opts, len(d.Months))
	prev := opts.InitialPrior
	for i, month := range d.Months {
		if err := ctx.Err(); err != nil {
			return models, monthErrors(errs, panicked), err
		}
		began := ins.began()
		models[i], panicked[i], errs[i] = fitMonthSmoothed(month, d.Medicines.Len(), opts, prev)
		if models[i] != nil {
			prev = models[i]
		}
		ins.monthDone(ctx, i, models[i], errs[i], began)
	}
	if err := ctx.Err(); err != nil {
		return models, monthErrors(errs, panicked), err
	}
	return models, monthErrors(errs, panicked), nil
}

// fitMonthSmoothed is fitMonth for the smoothed chain: the same faultpoint
// site and panic isolation, with the previous month's posterior as prior.
func fitMonthSmoothed(month *mic.Monthly, vocabMedicines int, opts FitOptions, prior *Model) (m *Model, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, panicked = nil, true
			err = fmt.Errorf("medmodel: month %d fit panicked: %v", month.Month, r)
		}
	}()
	if err := faultpoint.Inject("medmodel/fit-month", strconv.Itoa(month.Month)); err != nil {
		return nil, false, err
	}
	m, err = FitSmoothed(month, vocabMedicines, opts, prior, opts.PriorWeight)
	return m, false, err
}

// monthErrors collects the per-month failures in month order.
func monthErrors(errs []error, panicked []bool) []MonthError {
	var out []MonthError
	for i, err := range errs {
		if err != nil {
			out = append(out, MonthError{Month: i, Err: err, Panicked: panicked[i]})
		}
	}
	return out
}

// FallbackModel builds the cooccurrence-initialized medication model without
// running EM — the degradation target when a month's EM fit fails or
// crashes. It is the exact model EM starts from (Eq. 10 support and
// estimate), so downstream series reproduction stays well-defined, just
// without the latent-variable refinement. A month with no usable records
// yields a model with an empty Φ, whose responsibilities fall back to θ.
func FallbackModel(month *mic.Monthly, vocabMedicines int) *Model {
	model := &Model{Eta: EstimateEta(month), M: vocabMedicines}
	if recs, err := usableRecords(month); err == nil {
		model.Phi = cooccurrencePhi(recs)
	}
	return model
}

// cooccurrencePhi computes the Eq. 10 estimate used as the Cooccurrence
// baseline, as EM initialization and as the fallback model. Cooc_r(d, m)
// counts each occurrence of medicine m in a record once per disease entry of
// the record: a record listing d twice counts each of its medicine
// occurrences twice for d.
func cooccurrencePhi(recs []*mic.Record) map[mic.DiseaseID]map[mic.MedicineID]float64 {
	s := newSupport(recs)
	return s.phiMap()
}
