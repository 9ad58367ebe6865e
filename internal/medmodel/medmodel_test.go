package medmodel

import (
	"context"
	"errors"
	"math"
	"testing"

	"mictrend/internal/mic"
)

// twoDisease builds the canonical disambiguation corpus: disease 0 is always
// treated with medicine 0, disease 1 with medicine 1, but mixed records
// contain both bags with no links.
func twoDiseaseMonth() *mic.Monthly {
	m := &mic.Monthly{Month: 0}
	// Pure records pin down the associations.
	for i := 0; i < 10; i++ {
		m.Records = append(m.Records,
			mic.Record{Diseases: []mic.DiseaseCount{{Disease: 0, Count: 1}}, Medicines: []mic.MedicineID{0}},
			mic.Record{Diseases: []mic.DiseaseCount{{Disease: 1, Count: 1}}, Medicines: []mic.MedicineID{1}},
		)
	}
	// Mixed records are ambiguous on their own.
	for i := 0; i < 10; i++ {
		m.Records = append(m.Records,
			mic.Record{Diseases: []mic.DiseaseCount{{Disease: 0, Count: 1}, {Disease: 1, Count: 1}}, Medicines: []mic.MedicineID{0, 1}},
		)
	}
	return m
}

func TestTheta(t *testing.T) {
	r := &mic.Record{Diseases: []mic.DiseaseCount{{Disease: 0, Count: 3}, {Disease: 1, Count: 1}}}
	theta := Theta(r)
	if math.Abs(theta[0]-0.75) > 1e-12 || math.Abs(theta[1]-0.25) > 1e-12 {
		t.Fatalf("theta = %v", theta)
	}
	empty := Theta(&mic.Record{})
	if len(empty) != 0 {
		t.Fatal("empty record should have empty theta")
	}
}

func TestEstimateEta(t *testing.T) {
	m := &mic.Monthly{Records: []mic.Record{
		{Diseases: []mic.DiseaseCount{{Disease: 0, Count: 3}}},
		{Diseases: []mic.DiseaseCount{{Disease: 1, Count: 1}}},
	}}
	eta := EstimateEta(m)
	if math.Abs(eta[0]-0.75) > 1e-12 || math.Abs(eta[1]-0.25) > 1e-12 {
		t.Fatalf("eta = %v", eta)
	}
	var sum float64
	for _, v := range eta {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("eta sums to %v", sum)
	}
}

func TestEMDisambiguatesLinks(t *testing.T) {
	month := twoDiseaseMonth()
	model, err := Fit(month, 2, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// After EM, disease 0 should almost exclusively generate medicine 0.
	if model.Phi[0][0] < 0.95 {
		t.Fatalf("phi[0][0] = %v, want > 0.95", model.Phi[0][0])
	}
	if model.Phi[1][1] < 0.95 {
		t.Fatalf("phi[1][1] = %v, want > 0.95", model.Phi[1][1])
	}
	// The cooccurrence baseline cannot: mixed records pollute it.
	cooc, err := FitCooccurrence(month, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cooc.Phi[0][1] < 0.2 {
		t.Fatalf("cooccurrence phi[0][1] = %v, expected pollution > 0.2", cooc.Phi[0][1])
	}
}

func TestPhiRowsSumToOne(t *testing.T) {
	model, err := Fit(twoDiseaseMonth(), 2, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for d, row := range model.Phi {
		var sum float64
		for _, p := range row {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("phi[%d] sums to %v", d, sum)
		}
	}
}

func TestEMLogLikImproves(t *testing.T) {
	month := twoDiseaseMonth()
	one, err := Fit(month, 2, FitOptions{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Fit(month, 2, FitOptions{MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	if many.LogLik < one.LogLik-1e-9 {
		t.Fatalf("EM decreased log-likelihood: %v -> %v", one.LogLik, many.LogLik)
	}
	if many.Iterations < 2 {
		t.Fatalf("expected multiple iterations, got %d", many.Iterations)
	}
}

func TestResponsibilitySumsToOne(t *testing.T) {
	model, err := Fit(twoDiseaseMonth(), 2, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := &mic.Record{Diseases: []mic.DiseaseCount{{Disease: 0, Count: 1}, {Disease: 1, Count: 2}}, Medicines: []mic.MedicineID{0}}
	q := model.Responsibility(r, 0)
	var sum float64
	for _, v := range q {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("responsibility sums to %v", sum)
	}
	// Medicine 0 belongs to disease 0.
	if q[0] < 0.9 {
		t.Fatalf("q[d0] = %v, want ≈1", q[0])
	}
	// Unknown medicine: fall back to theta.
	q99 := model.Responsibility(r, 99)
	if math.Abs(q99[1]-2.0/3.0) > 1e-9 {
		t.Fatalf("fallback responsibility = %v", q99)
	}
}

func TestProbMedicineSmoothing(t *testing.T) {
	model, err := Fit(twoDiseaseMonth(), 10, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := &mic.Record{Diseases: []mic.DiseaseCount{{Disease: 0, Count: 1}}}
	// Unseen medicine still has positive probability.
	if p := model.ProbMedicine(r, 9); p <= 0 {
		t.Fatalf("unseen medicine probability = %v", p)
	}
	// Seen medicine dominates.
	if model.ProbMedicine(r, 0) < 1e3*model.ProbMedicine(r, 9) {
		t.Fatal("seen medicine should dominate unseen")
	}
}

func TestFitRejectsEmptyMonth(t *testing.T) {
	_, err := Fit(&mic.Monthly{}, 5, FitOptions{})
	if !errors.Is(err, ErrEmptyMonth) {
		t.Fatalf("err = %v", err)
	}
	if _, err := FitCooccurrence(&mic.Monthly{}, 5); err == nil {
		t.Fatal("cooccurrence accepted empty month")
	}
	if _, err := FitUnigram(&mic.Monthly{}, 5); err == nil {
		t.Fatal("unigram accepted empty month")
	}
}

func TestUnigramIgnoresContext(t *testing.T) {
	month := twoDiseaseMonth()
	u, err := FitUnigram(month, 2)
	if err != nil {
		t.Fatal(err)
	}
	r0 := &mic.Record{Diseases: []mic.DiseaseCount{{Disease: 0, Count: 1}}}
	r1 := &mic.Record{Diseases: []mic.DiseaseCount{{Disease: 1, Count: 1}}}
	if u.ProbMedicine(r0, 0) != u.ProbMedicine(r1, 0) {
		t.Fatal("unigram probability must not depend on the record")
	}
	// Both medicines equally frequent here.
	if math.Abs(u.ProbMedicine(r0, 0)-u.ProbMedicine(r0, 1)) > 1e-12 {
		t.Fatal("equal-frequency medicines should have equal unigram probability")
	}
}

func TestPerplexityOrdering(t *testing.T) {
	// The proposed model should beat unigram decisively on the
	// disambiguation corpus when testing medicines in pure records.
	month := twoDiseaseMonth()
	model, err := Fit(month, 2, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := FitUnigram(month, 2)
	if err != nil {
		t.Fatal(err)
	}
	test := make([][]mic.MedicineID, len(month.Records))
	for i := range month.Records {
		// Hold out every medicine of the pure records.
		if len(month.Records[i].Diseases) == 1 {
			test[i] = month.Records[i].Medicines
		}
	}
	pplModel, err := Perplexity(model, month, test)
	if err != nil {
		t.Fatal(err)
	}
	pplUnigram, err := Perplexity(u, month, test)
	if err != nil {
		t.Fatal(err)
	}
	if pplModel >= pplUnigram {
		t.Fatalf("proposed ppl %v should beat unigram %v", pplModel, pplUnigram)
	}
}

func TestReproduceConservesCounts(t *testing.T) {
	d := mic.NewDataset()
	d.Diseases.Intern("d0")
	d.Diseases.Intern("d1")
	d.Medicines.Intern("m0")
	d.Medicines.Intern("m1")
	d.AddHospital(mic.Hospital{Code: "H"})
	d.Months = []*mic.Monthly{twoDiseaseMonth()}
	models, fails, err := FitAll(context.Background(), d, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("unexpected month failures: %v", fails)
	}
	set, err := Reproduce(d, models)
	if err != nil {
		t.Fatal(err)
	}
	// Σ_d x_dmt must equal the number of occurrences of m in month t,
	// because responsibilities sum to one per occurrence.
	medFreq := d.Months[0].MedicineFrequencies()
	for m, f := range medFreq {
		series := set.Medicine(m)
		if series == nil {
			t.Fatalf("medicine %d missing from reproduction", m)
		}
		if math.Abs(series[0]-float64(f)) > 1e-6 {
			t.Fatalf("medicine %d: reproduced %v, actual %d", m, series[0], f)
		}
	}
	// Pair series must be consistent with marginals.
	var totalPairs float64
	for _, series := range set.Pairs {
		totalPairs += series[0]
	}
	var totalMeds float64
	for _, f := range medFreq {
		totalMeds += float64(f)
	}
	if math.Abs(totalPairs-totalMeds) > 1e-6 {
		t.Fatalf("pair total %v != medicine total %v", totalPairs, totalMeds)
	}
}

func TestReproduceResolvesMixedRecords(t *testing.T) {
	d := mic.NewDataset()
	d.Diseases.Intern("d0")
	d.Diseases.Intern("d1")
	d.Medicines.Intern("m0")
	d.Medicines.Intern("m1")
	d.AddHospital(mic.Hospital{Code: "H"})
	d.Months = []*mic.Monthly{twoDiseaseMonth()}
	models, fails, err := FitAll(context.Background(), d, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("unexpected month failures: %v", fails)
	}
	set, err := Reproduce(d, models)
	if err != nil {
		t.Fatal(err)
	}
	cross := set.Pair(mic.Pair{Disease: 0, Medicine: 1})
	var crossCount float64
	if cross != nil {
		crossCount = cross[0]
	}
	direct := set.Pair(mic.Pair{Disease: 0, Medicine: 0})
	if direct == nil || direct[0] < 15 {
		t.Fatalf("direct pair count = %v, want ≈20", direct)
	}
	if crossCount > 1.0 {
		t.Fatalf("cross pair count = %v, want ≈0", crossCount)
	}

	// The cooccurrence baseline, in contrast, leaves substantial cross mass.
	coocs := make([]*Cooccurrence, 1)
	coocs[0], err = FitCooccurrence(d.Months[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	coocSet, err := ReproduceCooccurrence(d, coocs)
	if err != nil {
		t.Fatal(err)
	}
	coocCross := coocSet.Pair(mic.Pair{Disease: 0, Medicine: 1})
	if coocCross == nil || coocCross[0] < 2 {
		t.Fatalf("cooccurrence cross count = %v, expected pollution", coocCross)
	}
}

func TestFilterMinTotal(t *testing.T) {
	s := &SeriesSet{T: 2, Pairs: map[mic.Pair][]float64{
		{Disease: 0, Medicine: 0}: {5, 6},
		{Disease: 0, Medicine: 1}: {1, 0},
	}}
	f := s.FilterMinTotal(10)
	if len(f.Pairs) != 1 {
		t.Fatalf("filtered pairs = %d, want 1", len(f.Pairs))
	}
	if f.Pair(mic.Pair{Disease: 0, Medicine: 0}) == nil {
		t.Fatal("frequent pair dropped")
	}
	if got := len(f.Medicines()); got != 1 {
		t.Fatalf("medicines after filter = %d", got)
	}
}

func TestRankMedicines(t *testing.T) {
	s := &SeriesSet{T: 1, Pairs: map[mic.Pair][]float64{
		{Disease: 0, Medicine: 0}: {3},
		{Disease: 0, Medicine: 1}: {10},
		{Disease: 0, Medicine: 2}: {1},
		{Disease: 1, Medicine: 0}: {99}, // other disease must not interfere
	}}
	ranked := RankMedicines([]*SeriesSet{s}, 0)
	if len(ranked) != 3 || ranked[0] != 1 || ranked[1] != 0 || ranked[2] != 2 {
		t.Fatalf("ranked = %v", ranked)
	}
}

func TestReproduceRequiresOneModelPerMonth(t *testing.T) {
	d := mic.NewDataset()
	d.Months = []*mic.Monthly{{Month: 0}, {Month: 1}}
	if _, err := Reproduce(d, []*Model{}); err == nil {
		t.Fatal("model count mismatch accepted")
	}
}
