package medmodel_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
	"mictrend/internal/micgen"
	"mictrend/internal/serve"
	"mictrend/internal/trend"
)

// series is a reproduced SeriesSet as plain maps, the form the map-based
// oracle produces and the dense path is compared in.
type series struct {
	pairs     map[mic.Pair][]float64
	diseases  map[mic.DiseaseID][]float64
	medicines map[mic.MedicineID][]float64
}

type responsibility func(month int, r *mic.Record, med mic.MedicineID) map[mic.DiseaseID]float64

// oracleReproduce is the map-based reproduction: each month sums the
// responsibilities into a pair map in record order, the month maps are
// placed into per-pair series, and the marginals add the pairs in sorted
// (disease, medicine) order.
func oracleReproduce(d *mic.Dataset, resp responsibility) series {
	o := series{map[mic.Pair][]float64{}, map[mic.DiseaseID][]float64{}, map[mic.MedicineID][]float64{}}
	for t, month := range d.Months {
		local := make(map[mic.Pair]float64)
		for i := range month.Records {
			r := &month.Records[i]
			if len(r.Diseases) == 0 {
				continue
			}
			for _, med := range r.Medicines {
				for dis, q := range resp(t, r, med) {
					if q != 0 {
						local[mic.Pair{Disease: dis, Medicine: med}] += q
					}
				}
			}
		}
		for p, v := range local {
			if o.pairs[p] == nil {
				o.pairs[p] = make([]float64, d.T())
			}
			o.pairs[p][t] = v
		}
	}
	for _, p := range sortedPairs(o.pairs) {
		if o.diseases[p.Disease] == nil {
			o.diseases[p.Disease] = make([]float64, d.T())
		}
		if o.medicines[p.Medicine] == nil {
			o.medicines[p.Medicine] = make([]float64, d.T())
		}
		for t, v := range o.pairs[p] {
			o.diseases[p.Disease][t] += v
			o.medicines[p.Medicine][t] += v
		}
	}
	return o
}

func modelResponsibility(models []*medmodel.Model) responsibility {
	return func(t int, r *mic.Record, med mic.MedicineID) map[mic.DiseaseID]float64 {
		return models[t].Responsibility(r, med)
	}
}

func sortedPairs(m map[mic.Pair][]float64) []mic.Pair {
	pairs := make([]mic.Pair, 0, len(m))
	for p := range m {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(a, b mic.Pair) int {
		return cmp.Or(cmp.Compare(a.Disease, b.Disease), cmp.Compare(a.Medicine, b.Medicine))
	})
	return pairs
}

// view reads a SeriesSet through its public accessors, checking that the
// id accessors are ascending.
func view(t *testing.T, s *medmodel.SeriesSet) series {
	t.Helper()
	v := series{map[mic.Pair][]float64{}, map[mic.DiseaseID][]float64{}, map[mic.MedicineID][]float64{}}
	for p := range s.Pairs {
		v.pairs[p] = s.Pair(p)
	}
	diseases, medicines := s.Diseases(), s.Medicines()
	if !slices.IsSorted(diseases) || !slices.IsSorted(medicines) {
		t.Fatalf("ids not ascending: diseases %v medicines %v", diseases, medicines)
	}
	for _, d := range diseases {
		v.diseases[d] = s.Disease(d)
	}
	for _, m := range medicines {
		v.medicines[m] = s.Medicine(m)
	}
	return v
}

func sameBits[K comparable](t *testing.T, what string, got, want map[K][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d series, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || len(g) != len(w) {
			t.Fatalf("%s %v: got %v, want %v", what, k, g, w)
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s %v month %d: got %v (%#x), want %v (%#x)",
					what, k, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
			}
		}
	}
}

func sameSeries(t *testing.T, got, want series) {
	t.Helper()
	sameBits(t, "pair", got.pairs, want.pairs)
	sameBits(t, "disease", got.diseases, want.diseases)
	sameBits(t, "medicine", got.medicines, want.medicines)
}

// handBuiltDataset covers the record shapes the responsibility arithmetic
// special-cases, and a model whose φ gives medicine 3 zero probability under
// every disease and has no row for disease 3.
func handBuiltDataset() (*mic.Dataset, []*medmodel.Model) {
	d := mic.NewDataset()
	for i := 0; i < 4; i++ {
		d.Diseases.Intern(fmt.Sprintf("d%d", i))
		d.Medicines.Intern(fmt.Sprintf("m%d", i))
	}
	d.AddHospital(mic.Hospital{Code: "H"})
	dc := func(pairs ...int) []mic.DiseaseCount {
		var out []mic.DiseaseCount
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, mic.DiseaseCount{Disease: mic.DiseaseID(pairs[i]), Count: pairs[i+1]})
		}
		return out
	}
	meds := func(ids ...int) []mic.MedicineID {
		var out []mic.MedicineID
		for _, id := range ids {
			out = append(out, mic.MedicineID(id))
		}
		return out
	}
	records := []mic.Record{
		{Diseases: dc(0, 2, 1, 1, 0, 1), Medicines: meds(0, 1)}, // duplicate disease entries
		{Diseases: dc(1, 1, 2, 3), Medicines: meds(2, 2, 0)},    // repeated medicine
		{Diseases: dc(0, 1, 2, 1), Medicines: meds(3)},          // φ = 0 everywhere: θ fallback
		{Diseases: dc(1, 2)},                              // diseases, no medicines
		{Diseases: dc(0, 0, 3, 0), Medicines: meds(0, 1)}, // all-zero disease counts
		{Medicines: meds(0)},                              // no diseases
		{Diseases: dc(3, 1, 1, 1), Medicines: meds(1, 3)}, // disease without a φ row
		{Diseases: dc(2, 1, 0, 2, 2, 2), Medicines: meds(0, 2, 0)},
	}
	d.Months = []*mic.Monthly{
		{Month: 0, Records: records},
		{Month: 1, Records: slices.Concat(records[4:], records[:4])},
		{Month: 2, Records: records[2:5]},
	}
	phi := map[mic.DiseaseID]map[mic.MedicineID]float64{
		0: {0: 0.5, 1: 0.5},
		1: {1: 0.3, 2: 0.7},
		2: {0: 0.2, 2: 0.8},
	}
	models := make([]*medmodel.Model, d.T())
	for i := range models {
		models[i] = &medmodel.Model{Phi: phi, M: d.Medicines.Len()}
	}
	return d, models
}

// roundTrip saves models as serving-store checkpoints and loads them back
// from a reopened store, i.e. through the checkpoint codec on disk.
func roundTrip(t *testing.T, models []*medmodel.Model) []*medmodel.Model {
	t.Helper()
	dir := t.TempDir()
	store, _, err := serve.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range models {
		if err := store.SaveMonth(trend.MonthCheckpoint{Month: i, DataHash: uint64(i), Model: m}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, _, err = serve.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	out := make([]*medmodel.Model, len(models))
	for i := range out {
		cp, ok, err := store.LoadMonth(i)
		if err != nil || !ok || cp.Model == nil {
			t.Fatalf("month %d: checkpoint not recovered (ok=%v err=%v)", i, ok, err)
		}
		if cp.Model == models[i] {
			t.Fatalf("month %d: checkpoint returned the saved model, not a decoded one", i)
		}
		out[i] = cp.Model
	}
	return out
}

func generated(t *testing.T) *mic.Dataset {
	t.Helper()
	ds, _, err := micgen.Generate(micgen.Config{
		Seed: 11, Months: 8, RecordsPerMonth: 300, BulkDiseases: 12, BulkMedicines: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func fitAll(t *testing.T, ds *mic.Dataset, opts medmodel.FitOptions) []*medmodel.Model {
	t.Helper()
	models, fails, err := medmodel.FitAll(context.Background(), ds, opts)
	if err != nil || len(fails) != 0 {
		t.Fatalf("FitAll: err=%v fails=%v", err, fails)
	}
	return models
}

// TestReproduceDenseMatchesMapOracle pins the dense reproduction to the
// map-based one bit for bit — every pair series and every disease and
// medicine marginal — for every kind of model the pipeline reproduces with
// and for the record shapes the responsibility arithmetic special-cases.
func TestReproduceDenseMatchesMapOracle(t *testing.T) {
	ds := generated(t)
	fitted := fitAll(t, ds, medmodel.FitOptions{MaxIter: 12})
	fallback := make([]*medmodel.Model, ds.T())
	for i, month := range ds.Months {
		fallback[i] = medmodel.FallbackModel(month, ds.Medicines.Len())
	}
	hand, handModels := handBuiltDataset()
	handFallback := make([]*medmodel.Model, hand.T())
	for i, month := range hand.Months {
		handFallback[i] = medmodel.FallbackModel(month, hand.Medicines.Len())
	}
	cases := []struct {
		name   string
		ds     *mic.Dataset
		models []*medmodel.Model
	}{
		{"fitall", ds, fitted},
		{"fallback", ds, fallback},
		{"prior-weight", ds, fitAll(t, ds, medmodel.FitOptions{MaxIter: 12, PriorWeight: 5})},
		{"checkpoint-round-trip", ds, roundTrip(t, fitted)},
		{"hand-built", hand, handModels},
		{"hand-built-fallback", hand, handFallback},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := oracleReproduce(c.ds, modelResponsibility(c.models))
			if len(want.pairs) == 0 {
				t.Fatal("oracle reproduced no pairs")
			}
			serial, err := medmodel.Reproduce(c.ds, c.models)
			if err != nil {
				t.Fatal(err)
			}
			sameSeries(t, view(t, serial), want)
			for _, workers := range []int{2, 5} {
				par, err := medmodel.ReproduceParallel(c.ds, c.models, workers)
				if err != nil {
					t.Fatal(err)
				}
				sameSeries(t, view(t, par), want)
			}
		})
	}
	for _, c := range []struct {
		name string
		ds   *mic.Dataset
	}{{"cooccurrence", ds}, {"hand-built-cooccurrence", hand}} {
		t.Run(c.name, func(t *testing.T) {
			coocs := make([]*medmodel.Cooccurrence, c.ds.T())
			for i, month := range c.ds.Months {
				var err error
				if coocs[i], err = medmodel.FitCooccurrence(month, c.ds.Medicines.Len()); err != nil {
					t.Fatal(err)
				}
			}
			got, err := medmodel.ReproduceCooccurrence(c.ds, coocs)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleReproduce(c.ds, func(t int, r *mic.Record, med mic.MedicineID) map[mic.DiseaseID]float64 {
				return coocs[t].Responsibility(r, med)
			})
			sameSeries(t, view(t, got), want)
		})
	}
}

// TestReproduceFilteredMatchesFilterMinTotal pins ReproduceFiltered, which
// filters during the merge, to reproducing everything and filtering after.
func TestReproduceFilteredMatchesFilterMinTotal(t *testing.T) {
	ds := generated(t)
	models := fitAll(t, ds, medmodel.FitOptions{MaxIter: 12})
	all, err := medmodel.ReproduceParallel(ds, models, 1)
	if err != nil {
		t.Fatal(err)
	}
	var totals []float64
	for _, y := range all.Pairs {
		var total float64
		for _, v := range y {
			total += v
		}
		totals = append(totals, total)
	}
	slices.Sort(totals)
	top, median := totals[len(totals)-1], totals[len(totals)/2]
	for _, minTotal := range []float64{0, 10, median, top + 1} {
		name := fmt.Sprint(minTotal)
		switch minTotal {
		case median:
			name = "a-pair-total" // the filter keeps a pair whose total equals minTotal
		case top + 1:
			name = "above-every-total"
		}
		for _, workers := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("min=%s/workers=%d", name, workers), func(t *testing.T) {
				par, err := medmodel.ReproduceParallel(ds, models, workers)
				if err != nil {
					t.Fatal(err)
				}
				want := par.FilterMinTotal(minTotal)
				got, err := medmodel.ReproduceFiltered(ds, models, workers, minTotal)
				if err != nil {
					t.Fatal(err)
				}
				sameSeries(t, view(t, got), view(t, want))
				switch {
				case minTotal == 10 && (len(got.Pairs) == 0 || len(got.Pairs) == len(all.Pairs)):
					t.Fatalf("minTotal 10 kept %d of %d pairs; the case filters nothing or everything", len(got.Pairs), len(all.Pairs))
				case minTotal > top && len(got.Pairs) != 0:
					t.Fatalf("minTotal above every total kept %d pairs", len(got.Pairs))
				}
			})
		}
	}
}
