package medmodel

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"mictrend/internal/mic"
	"mictrend/internal/micgen"
)

// The map-built EM this file keeps as an oracle: the Eq. 10 estimate
// accumulated in nested maps, an index interned through maps and closure
// searches (with sentinels for diseases and pairs outside the support), an
// E/M sweep, and a separate log-likelihood pass after every M-step. Fit and
// cooccurrencePhi must reproduce it bit for bit.

func oracleCooccurrencePhi(recs []*mic.Record) map[mic.DiseaseID]map[mic.MedicineID]float64 {
	phi := make(map[mic.DiseaseID]map[mic.MedicineID]float64)
	rowSums := make(map[mic.DiseaseID]float64)
	for _, r := range recs {
		for _, dc := range r.Diseases {
			row, ok := phi[dc.Disease]
			if !ok {
				row = make(map[mic.MedicineID]float64)
				phi[dc.Disease] = row
			}
			for _, med := range r.Medicines {
				row[med]++
				rowSums[dc.Disease]++
			}
		}
	}
	for d, row := range phi {
		sum := rowSums[d]
		if sum <= 0 {
			delete(phi, d)
			continue
		}
		for med := range row {
			row[med] /= sum
		}
	}
	return phi
}

type oracleIndex struct {
	support
	next, rowSum []float64
	thetaStart   []int
	thetaDis     []int32
	thetaVal     []float64
	occStart     []int
	pos          []int32
	numMeds      []int
}

func newOracleIndex(recs []*mic.Record) *oracleIndex {
	phi := oracleCooccurrencePhi(recs)
	ix := &oracleIndex{}
	for d := range phi {
		ix.diseases = append(ix.diseases, d)
	}
	sort.Slice(ix.diseases, func(a, b int) bool { return ix.diseases[a] < ix.diseases[b] })
	diseaseIdx := make(map[mic.DiseaseID]int32, len(ix.diseases))
	ix.rowStart = make([]int, len(ix.diseases)+1)
	for di, d := range ix.diseases {
		diseaseIdx[d] = int32(di)
		row := phi[d]
		var meds []mic.MedicineID
		for med := range row {
			meds = append(meds, med)
		}
		sort.Slice(meds, func(a, b int) bool { return meds[a] < meds[b] })
		for _, med := range meds {
			ix.rowMed = append(ix.rowMed, med)
			ix.val = append(ix.val, row[med])
		}
		ix.rowStart[di+1] = len(ix.rowMed)
	}
	ix.next = make([]float64, len(ix.val))
	ix.rowSum = make([]float64, len(ix.diseases))
	ix.thetaStart = make([]int, len(recs)+1)
	ix.occStart = make([]int, len(recs)+1)
	ix.numMeds = make([]int, len(recs))
	for r, rec := range recs {
		slotOf := make(map[mic.DiseaseID]int)
		if n := rec.NumDiseaseMentions(); n > 0 {
			for _, dc := range rec.Diseases {
				s, ok := slotOf[dc.Disease]
				if !ok {
					s = len(ix.thetaVal) - ix.thetaStart[r]
					slotOf[dc.Disease] = s
					di, inSupport := diseaseIdx[dc.Disease]
					if !inSupport {
						di = -1
					}
					ix.thetaDis = append(ix.thetaDis, di)
					ix.thetaVal = append(ix.thetaVal, 0)
				}
				ix.thetaVal[ix.thetaStart[r]+s] += float64(dc.Count) / float64(n)
			}
		}
		ix.thetaStart[r+1] = len(ix.thetaVal)
		slots := ix.thetaStart[r+1] - ix.thetaStart[r]
		ix.numMeds[r] = len(rec.Medicines)
		for _, med := range rec.Medicines {
			for s := 0; s < slots; s++ {
				di := ix.thetaDis[ix.thetaStart[r]+s]
				p := int32(-1)
				if di >= 0 {
					lo, hi := ix.rowStart[di], ix.rowStart[di+1]
					row := ix.rowMed[lo:hi]
					j := sort.Search(len(row), func(k int) bool { return row[k] >= med })
					if j < len(row) && row[j] == med {
						p = int32(lo + j)
					}
				}
				ix.pos = append(ix.pos, p)
			}
		}
		ix.occStart[r+1] = len(ix.pos)
	}
	return ix
}

func (ix *oracleIndex) iterate() {
	clear(ix.next)
	clear(ix.rowSum)
	for r := range ix.numMeds {
		ts := ix.thetaStart[r]
		slots := ix.thetaStart[r+1] - ts
		if slots == 0 {
			continue
		}
		theta, dis := ix.thetaVal[ts:ts+slots], ix.thetaDis[ts:ts+slots]
		for o := 0; o < ix.numMeds[r]; o++ {
			blk := ix.pos[ix.occStart[r]+o*slots : ix.occStart[r]+(o+1)*slots]
			var denom float64
			for s, p := range blk {
				if p >= 0 {
					denom += theta[s] * ix.val[p]
				}
			}
			if denom <= 0 {
				continue
			}
			for s, p := range blk {
				if p < 0 {
					continue
				}
				q := theta[s] * ix.val[p] / denom
				if q == 0 {
					continue
				}
				ix.next[p] += q
				ix.rowSum[dis[s]] += q
			}
		}
	}
	for d, sum := range ix.rowSum {
		lo, hi := ix.rowStart[d], ix.rowStart[d+1]
		for i := lo; i < hi; i++ {
			if sum <= 0 {
				ix.val[i] = 0
			} else {
				ix.val[i] = ix.next[i] / sum
			}
		}
	}
}

func (ix *oracleIndex) logLik() float64 {
	var ll float64
	for r := range ix.numMeds {
		ts := ix.thetaStart[r]
		slots := ix.thetaStart[r+1] - ts
		if slots == 0 {
			continue
		}
		theta := ix.thetaVal[ts : ts+slots]
		for o := 0; o < ix.numMeds[r]; o++ {
			var p float64
			for s, pp := range ix.pos[ix.occStart[r]+o*slots : ix.occStart[r]+(o+1)*slots] {
				if pp >= 0 {
					p += theta[s] * ix.val[pp]
				}
			}
			if p <= 0 {
				p = math.SmallestNonzeroFloat64
			}
			ll += math.Log(p)
		}
	}
	return ll
}

func oracleFit(t *testing.T, month *mic.Monthly, vocabMedicines int, opts FitOptions) *Model {
	t.Helper()
	opts = opts.withDefaults()
	recs, err := usableRecords(month)
	if err != nil {
		t.Fatal(err)
	}
	ix := newOracleIndex(recs)
	model := &Model{Eta: EstimateEta(month), M: vocabMedicines}
	prevLL := math.Inf(-1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		ix.iterate()
		model.Iterations = iter + 1
		ll := ix.logLik()
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
	return model
}

func samePhiBits(t *testing.T, what string, got, want map[mic.DiseaseID]map[mic.MedicineID]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d φ rows, want %d", what, len(got), len(want))
	}
	for d, wrow := range want {
		grow, ok := got[d]
		if !ok || len(grow) != len(wrow) {
			t.Fatalf("%s: φ row %d has %d entries (present %v), want %d", what, d, len(grow), ok, len(wrow))
		}
		for m, w := range wrow {
			g, ok := grow[m]
			if !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: φ[%d][%d] = %v (present %v), want %v", what, d, m, g, ok, w)
			}
		}
	}
}

// oracleMonths are hand-built months for the index's edge cases.
func oracleMonths() map[string]*mic.Monthly {
	dc := func(d mic.DiseaseID, n int) mic.DiseaseCount { return mic.DiseaseCount{Disease: d, Count: n} }
	rec := func(ds []mic.DiseaseCount, ms ...mic.MedicineID) mic.Record {
		return mic.Record{Diseases: ds, Medicines: ms}
	}
	mixed := &mic.Monthly{Records: []mic.Record{
		rec([]mic.DiseaseCount{dc(1, 1), dc(2, 2), dc(1, 1)}, 10, 11), // duplicated disease entry
		rec([]mic.DiseaseCount{dc(2, 1), dc(3, 1)}, 11, 11, 12, 11),   // repeated medicine
		rec([]mic.DiseaseCount{dc(3, 2), dc(4, 0)}, 12, 13),           // Count-0 entry
		rec([]mic.DiseaseCount{dc(5, 0), dc(1, 0)}, 10, 14),           // no θ slots
		rec([]mic.DiseaseCount{dc(-7, 1), dc(2, 1)}, -3, 11, -1),      // negative ids
		rec([]mic.DiseaseCount{dc(-7, 3)}, -3, -3),
		rec(nil, 10, 11),                  // unusable: no diseases
		rec([]mic.DiseaseCount{dc(6, 1)}), // unusable: no medicines
		rec([]mic.DiseaseCount{dc(1, 1), dc(4, 1), dc(2, 1)}, 13, 10),
		rec([]mic.DiseaseCount{dc(3, 1), dc(-7, 1), dc(3, 1)}, -1, 12),
	}}
	return map[string]*mic.Monthly{
		"mixed":        mixed,
		"single":       {Records: []mic.Record{rec([]mic.DiseaseCount{dc(-2, 1), dc(4, 3), dc(-2, 1)}, 7, -8, 7)}},
		"single_empty": {Records: []mic.Record{rec([]mic.DiseaseCount{dc(1, 0)}, 3, 4)}},
		"two_disease":  twoDiseaseMonth(),
		// A negative count makes θ·φ sum to below 0 for medicine 20 in the
		// first record, which the E-step skips and the log-likelihood floors.
		"negative_count": {Records: []mic.Record{
			rec([]mic.DiseaseCount{dc(8, 2), dc(9, -1)}, 20, 21),
			rec([]mic.DiseaseCount{dc(9, 1)}, 20),
			rec([]mic.DiseaseCount{dc(8, 1)}, 21, 21, 21),
		}},
		// θ·φ for medicine 20 in the first record cancels to exactly 0.
		"zero_normaliser": {Records: []mic.Record{
			rec([]mic.DiseaseCount{dc(8, 2), dc(9, -1)}, 20, 21),
			rec([]mic.DiseaseCount{dc(8, 1)}, 21, 21),
		}},
	}
}

// TestFitMatchesMapOracle: Fit's map-free index and fused E-step give the
// map-built oracle's iteration count, log-likelihood trace and φ bit for
// bit, and the cooccurrence builder its Eq. 10 estimate, on hand-built edge
// cases, a paper-shaped bulk vocabulary and the baseline corpus's months.
func TestFitMatchesMapOracle(t *testing.T) {
	months := oracleMonths()
	names := []string{"mixed", "single", "single_empty", "two_disease", "negative_count", "zero_normaliser"}
	vocab := map[string]int{}
	add := func(prefix string, cfg micgen.Config, every int) {
		ds, _, err := micgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(ds.Months); i += every {
			name := fmt.Sprintf("%s/month%d", prefix, i)
			months[name], vocab[name] = ds.Months[i], ds.Medicines.Len()
			names = append(names, name)
		}
	}
	add("bulk", micgen.Config{Seed: 7, Months: 4, RecordsPerMonth: 1500, BulkDiseases: 300, BulkMedicines: 300}, 1)
	baseline := micgen.Config{Seed: 7, Months: 43, RecordsPerMonth: 2000}
	every := 1
	if testing.Short() {
		every = 6
	}
	add("baseline", baseline, every)

	for _, name := range names {
		month := months[name]
		recs, err := usableRecords(month)
		if err != nil {
			if _, ferr := Fit(month, 20, FitOptions{}); ferr == nil {
				t.Fatalf("%s: Fit succeeded on a month without usable records", name)
			}
			continue
		}
		want := oracleCooccurrencePhi(recs)
		samePhiBits(t, name+" cooccurrencePhi", cooccurrencePhi(recs), want)
		samePhiBits(t, name+" FallbackModel", FallbackModel(month, 20).Phi, want)
		cooc, err := FitCooccurrence(month, 20)
		if err != nil {
			t.Fatal(err)
		}
		samePhiBits(t, name+" FitCooccurrence", cooc.Phi, want)

		for _, maxIter := range []int{1, 2, 7, 0} {
			opts := FitOptions{MaxIter: maxIter, TraceConvergence: true}
			what := fmt.Sprintf("%s MaxIter=%d", name, maxIter)
			got, err := Fit(month, vocab[name], opts)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			exp := oracleFit(t, month, vocab[name], opts)
			if got.Iterations != exp.Iterations {
				t.Fatalf("%s: %d iterations, want %d", what, got.Iterations, exp.Iterations)
			}
			if math.Float64bits(got.LogLik) != math.Float64bits(exp.LogLik) {
				t.Fatalf("%s: LogLik %v, want %v", what, got.LogLik, exp.LogLik)
			}
			if len(got.LogLikTrace) != len(exp.LogLikTrace) {
				t.Fatalf("%s: trace length %d, want %d", what, len(got.LogLikTrace), len(exp.LogLikTrace))
			}
			for i, ll := range exp.LogLikTrace {
				if math.Float64bits(got.LogLikTrace[i]) != math.Float64bits(ll) {
					t.Fatalf("%s: trace[%d] = %v, want %v", what, i, got.LogLikTrace[i], ll)
				}
			}
			samePhiBits(t, what, got.Phi, exp.Phi)
		}
	}
}

// TestCooccurrenceCountsPerDiseaseEntry pins Eq. 10's counting: a record
// listing a disease twice counts each of its medicine occurrences twice for
// that disease. With A = ([d1, d1], [m1]) and B = ([d1], [m2]), φ₀(d1) is
// (2/3, 1/3), not (1/2, 1/2).
func TestCooccurrenceCountsPerDiseaseEntry(t *testing.T) {
	month := &mic.Monthly{Records: []mic.Record{
		{Diseases: []mic.DiseaseCount{{Disease: 1, Count: 1}, {Disease: 1, Count: 1}}, Medicines: []mic.MedicineID{1}},
		{Diseases: []mic.DiseaseCount{{Disease: 1, Count: 1}}, Medicines: []mic.MedicineID{2}},
	}}
	recs, err := usableRecords(month)
	if err != nil {
		t.Fatal(err)
	}
	samePhiBits(t, "cooccurrencePhi", cooccurrencePhi(recs), map[mic.DiseaseID]map[mic.MedicineID]float64{
		1: {1: 2.0 / 3, 2: 1.0 / 3},
	})
}
