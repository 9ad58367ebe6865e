package experiments

import (
	"runtime"
	"sort"
	"sync"

	"mictrend/internal/mic"
	"mictrend/internal/trend"
)

// LabeledSeries is one reproduced time series entering the Table IV–VI
// sweeps.
type LabeledSeries struct {
	Kind     trend.SeriesKind
	Disease  mic.DiseaseID
	Medicine mic.MedicineID
	Values   []float64
}

// SampleSeries returns up to MaxSeriesPerKind disease, medicine, and
// prescription series each, ordered by id. Scenario entities are interned
// first by the generator, so the cap always retains the paper's case-study
// series.
func (e *Env) SampleSeries() ([]LabeledSeries, error) {
	series, _, err := e.Series()
	if err != nil {
		return nil, err
	}
	max := e.Config.MaxSeriesPerKind
	var out []LabeledSeries

	diseases := series.Diseases()
	if max > 0 && len(diseases) > max {
		diseases = diseases[:max]
	}
	for _, d := range diseases {
		out = append(out, LabeledSeries{Kind: trend.KindDisease, Disease: d, Values: series.Disease(d)})
	}

	meds := series.Medicines()
	if max > 0 && len(meds) > max {
		meds = meds[:max]
	}
	for _, m := range meds {
		out = append(out, LabeledSeries{Kind: trend.KindMedicine, Medicine: m, Values: series.Medicine(m)})
	}

	pairs := make([]mic.Pair, 0, len(series.Pairs))
	for p := range series.Pairs {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Disease != pairs[b].Disease {
			return pairs[a].Disease < pairs[b].Disease
		}
		return pairs[a].Medicine < pairs[b].Medicine
	})
	pairs = capSeries(pairs, max)
	for _, p := range pairs {
		out = append(out, LabeledSeries{
			Kind: trend.KindPrescription, Disease: p.Disease, Medicine: p.Medicine,
			Values: series.Pair(p),
		})
	}
	return out, nil
}

// parallelFor runs fn(i) for i in [0, n) across workers goroutines,
// returning the first error.
func parallelFor(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil
	}
	in := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range in {
				if err := fn(i); err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		in <- i
	}
	close(in)
	wg.Wait()
	close(errs)
	return <-errs
}
