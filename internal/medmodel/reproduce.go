package medmodel

import (
	"cmp"
	"errors"
	"runtime"
	"slices"
	"sync"

	"mictrend/internal/mic"
)

// SeriesSet holds reproduced monthly time series: Pairs is the paper's
// X_P (Eq. 7); disease and medicine series (Eq. 8) are marginal sums.
//
// The series live in flat T-strided arenas behind sorted indexes: row i of
// the pair arena is the i-th pair in ascending (disease, medicine) order,
// and each Pairs value is a capacity-limited view of its pair's row. The
// marginals are stored the same way, by ascending id.
type SeriesSet struct {
	// T is the number of months.
	T int
	// Pairs maps each disease–medicine pair to its monthly estimated
	// prescription counts.
	Pairs map[mic.Pair][]float64

	pairs     []mic.Pair // Pairs' keys, ascending (disease, medicine)
	arena     []float64  // row i is pairs[i]'s series
	diseases  marginal[mic.DiseaseID]
	medicines marginal[mic.MedicineID]
}

// marginal is one kind of Eq. 8 series: row i of arena is ids[i]'s series,
// ids ascending.
type marginal[K mic.DiseaseID | mic.MedicineID] struct {
	ids   []K
	arena []float64
}

func (m *marginal[K]) series(id K, T int) []float64 {
	i, ok := slices.BinarySearch(m.ids, id)
	if !ok {
		return nil
	}
	return row(m.arena, i, T)
}

// row returns row i of a T-strided arena, capacity-limited so that an
// append to it cannot overwrite the next row.
func row(arena []float64, i, T int) []float64 {
	return arena[i*T : (i+1)*T : (i+1)*T]
}

// link is one month's rule for distributing a medicine occurrence over its
// record's diseases: Model.Responsibility under phi, or, with cooc set,
// Cooccurrence.Responsibility's full count for every distinct disease.
type link struct {
	phi  map[mic.DiseaseID]map[mic.MedicineID]float64
	cooc bool
}

func modelLinks(models []*Model) []link {
	links := make([]link, len(models))
	for i, m := range models {
		links[i] = link{phi: m.Phi}
	}
	return links
}

// Reproduce applies fitted monthly models to their months and accumulates
// the pair time series x_dmt (Eq. 7). models[i] must correspond to
// dataset.Months[i].
func Reproduce(d *mic.Dataset, models []*Model) (*SeriesSet, error) {
	return reproduce(d, modelLinks(models), 1, false, 0)
}

// ReproduceCooccurrence reproduces the pair series with the cooccurrence
// baseline (the paper's Fig. 2a).
func ReproduceCooccurrence(d *mic.Dataset, models []*Cooccurrence) (*SeriesSet, error) {
	links := make([]link, len(models))
	for i := range links {
		links[i].cooc = true
	}
	return reproduce(d, links, 1, false, 0)
}

// ReproduceParallel is Reproduce with the months distributed over a bounded
// worker pool (workers ≤ 0 means GOMAXPROCS). Each month sums its pairs'
// contributions in record order — exactly the serial addition order for
// that month — into its own sorted list, and the lists are merged by pair
// with each month writing only its own slot, so the result is bit-identical
// to Reproduce's for every worker count.
func ReproduceParallel(d *mic.Dataset, models []*Model, workers int) (*SeriesSet, error) {
	return reproduce(d, modelLinks(models), workers, false, 0)
}

// ReproduceFiltered is ReproduceParallel followed by FilterMinTotal(minTotal),
// bit for bit, with the paper's §VI reliability filter applied while the
// month lists are merged: only pairs that survive it get a series row, a
// Pairs entry and a share of the marginals.
func ReproduceFiltered(d *mic.Dataset, models []*Model, workers int, minTotal float64) (*SeriesSet, error) {
	return reproduce(d, modelLinks(models), workers, true, minTotal)
}

func reproduce(d *mic.Dataset, links []link, workers int, filter bool, minTotal float64) (*SeriesSet, error) {
	if len(links) != d.T() {
		return nil, errors.New("medmodel: one model per month required")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, d.T()))
	lists := make([][]contribution, d.T())
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			for t := range next {
				lists[t] = sc.month(d.Months[t], links[t])
			}
		}()
	}
	for t := range d.Months {
		next <- t
	}
	close(next)
	wg.Wait()
	pairs, arena := merge(lists, filter, minTotal)
	return newSeriesSet(d.T(), pairs, arena), nil
}

// contribution is a responsibility q added to the pair encoded by key, or,
// in a month list, the pair's total for the month.
type contribution struct {
	key uint64
	q   float64
}

// pairKey encodes a pair so that unsigned key order is (disease, medicine)
// order: the sign bits are flipped so negative ids sort first.
func pairKey(d mic.DiseaseID, m mic.MedicineID) uint64 {
	return uint64(uint32(d)^1<<31)<<32 | uint64(uint32(m)^1<<31)
}

func keyPair(k uint64) mic.Pair {
	return mic.Pair{
		Disease:  mic.DiseaseID(int32(uint32(k>>32) ^ 1<<31)),
		Medicine: mic.MedicineID(int32(uint32(k) ^ 1<<31)),
	}
}

// scratch holds one worker's buffers, reused across its months.
type scratch struct {
	dis   []mic.DiseaseID              // the record's distinct diseases, first-occurrence order
	th    []float64                    // their θ (Eq. 2)
	phi   []map[mic.MedicineID]float64 // their φ rows
	w     []float64                    // their θ·φ for the current medicine
	buf   []contribution               // the month's contributions, record order
	spare []contribution
}

// month reproduces one month as its pair totals sorted by pair key. Every
// pair's contributions are summed in record order, the order a serial sweep
// adds them in, so the totals do not depend on the month's worker. The
// contribution buffer stays with the worker; the returned list is a
// compact copy.
func (sc *scratch) month(m *mic.Monthly, l link) []contribution {
	sc.buf = sc.buf[:0]
	for i := range m.Records {
		r := &m.Records[i]
		if len(r.Diseases) == 0 {
			continue
		}
		sc.record(r, l)
		for _, med := range r.Medicines {
			sc.add(med, l)
		}
	}
	if cap(sc.spare) < len(sc.buf) {
		sc.spare = make([]contribution, len(sc.buf))
	}
	sorted, spare := radixSort(sc.buf, sc.spare[:len(sc.buf)])
	sc.buf, sc.spare = sorted, spare
	totals := sorted[:0]
	for _, c := range sorted {
		if n := len(totals); n == 0 || totals[n-1].key != c.key {
			totals = append(totals, contribution{key: c.key})
		}
		totals[len(totals)-1].q += c.q
	}
	return slices.Clone(totals)
}

// record collects r's distinct diseases in first-occurrence order, with θ
// accumulated exactly as Theta does and their φ rows resolved once.
func (sc *scratch) record(r *mic.Record, l link) {
	n := r.NumDiseaseMentions()
	sc.dis, sc.th, sc.phi = sc.dis[:0], sc.th[:0], sc.phi[:0]
	for _, dc := range r.Diseases {
		j := slices.Index(sc.dis, dc.Disease)
		if j < 0 {
			j = len(sc.dis)
			sc.dis = append(sc.dis, dc.Disease)
			sc.th = append(sc.th, 0)
			sc.phi = append(sc.phi, l.phi[dc.Disease])
		}
		if n != 0 {
			sc.th[j] += float64(dc.Count) / float64(n)
		}
	}
}

// add appends one medicine occurrence's nonzero responsibilities over the
// current record's diseases. The proposed model's arithmetic is
// Model.Responsibility's: the normalizer accumulates in first-occurrence
// order, and a medicine with zero probability under every disease falls
// back to θ.
func (sc *scratch) add(med mic.MedicineID, l link) {
	if l.cooc {
		for _, d := range sc.dis {
			sc.buf = append(sc.buf, contribution{pairKey(d, med), 1})
		}
		return
	}
	sc.w = sc.w[:0]
	var total float64
	for j, phi := range sc.phi {
		w := sc.th[j] * phi[med]
		sc.w = append(sc.w, w)
		total += w
	}
	for j, d := range sc.dis {
		q := sc.th[j]
		if !(total <= 0) {
			q = sc.w[j] / total
		}
		if q != 0 {
			sc.buf = append(sc.buf, contribution{pairKey(d, med), q})
		}
	}
}

// radixSort sorts a by key with a stable LSD radix sort over bytes, using
// tmp (as long as a) as the other buffer and skipping bytes on which every
// key agrees. Stability keeps each pair's contributions in record order.
// It returns the sorted slice and the spare buffer.
func radixSort(a, tmp []contribution) (sorted, spare []contribution) {
	var count [8][256]int
	for _, c := range a {
		for b := range count {
			count[b][byte(c.key>>(8*b))]++
		}
	}
	for b := range count {
		n := &count[b]
		if len(a) == 0 || n[byte(a[0].key>>(8*b))] == len(a) {
			continue
		}
		sum := 0
		for i, k := range n {
			n[i] = sum
			sum += k
		}
		for _, c := range a {
			i := byte(c.key >> (8 * b))
			tmp[n[i]] = c
			n[i]++
		}
		a, tmp = tmp, a
	}
	return a, tmp
}

// merge k-way merges the sorted month lists into the sorted pair index over
// a flat T-strided arena, where month t's total lands in column t. With
// filter set it drops, as FilterMinTotal does, every pair whose total over
// the period is below minTotal.
func merge(lists [][]contribution, filter bool, minTotal float64) ([]mic.Pair, []float64) {
	T := len(lists)
	pos := make([]int, T)
	var pairs []mic.Pair
	var arena []float64
	for {
		var key uint64
		found := false
		for t, l := range lists {
			if pos[t] < len(l) && (!found || l[pos[t]].key < key) {
				key, found = l[pos[t]].key, true
			}
		}
		if !found {
			return pairs, arena
		}
		n := len(arena)
		arena = slices.Grow(arena, T)[:n+T]
		series := arena[n:]
		clear(series)
		for t, l := range lists {
			if pos[t] < len(l) && l[pos[t]].key == key {
				series[t] = l[pos[t]].q
				pos[t]++
			}
		}
		if filter && !(sum(series) >= minTotal) {
			arena = arena[:n]
			continue
		}
		pairs = append(pairs, keyPair(key))
	}
}

func sum(series []float64) float64 {
	var total float64
	for _, v := range series {
		total += v
	}
	return total
}

// newSeriesSet wraps a sorted pair index and its arena: it builds the Pairs
// view and the marginals in one pass in index order. That is the
// (disease, medicine) order, so every marginal adds its pairs in a fixed
// order and its last bits do not vary between runs.
func newSeriesSet(T int, pairs []mic.Pair, arena []float64) *SeriesSet {
	s := &SeriesSet{T: T, Pairs: make(map[mic.Pair][]float64, len(pairs)), pairs: pairs, arena: arena}
	meds := make([]mic.MedicineID, len(pairs))
	for i, p := range pairs {
		if i == 0 || p.Disease != pairs[i-1].Disease {
			s.diseases.ids = append(s.diseases.ids, p.Disease)
		}
		meds[i] = p.Medicine
	}
	slices.Sort(meds)
	s.medicines.ids = slices.Clip(slices.Compact(meds))
	s.diseases.arena = make([]float64, len(s.diseases.ids)*T)
	s.medicines.arena = make([]float64, len(s.medicines.ids)*T)
	di := -1
	for i, p := range pairs {
		if i == 0 || p.Disease != pairs[i-1].Disease {
			di++
		}
		mi, _ := slices.BinarySearch(s.medicines.ids, p.Medicine)
		series := row(arena, i, T)
		s.Pairs[p] = series
		ds, ms := row(s.diseases.arena, di, T), row(s.medicines.arena, mi, T)
		for t, v := range series {
			ds[t] += v
			ms[t] += v
		}
	}
	return s
}

// index returns the set's sorted pair index and arena. A set built by hand
// from a Pairs map has no index, and gets one sorted from the map.
func (s *SeriesSet) index() ([]mic.Pair, []float64) {
	if len(s.pairs) == len(s.Pairs) {
		return s.pairs, s.arena
	}
	pairs := make([]mic.Pair, 0, len(s.Pairs))
	for p := range s.Pairs {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(a, b mic.Pair) int {
		return cmp.Or(cmp.Compare(a.Disease, b.Disease), cmp.Compare(a.Medicine, b.Medicine))
	})
	arena := make([]float64, len(pairs)*s.T)
	for i, p := range pairs {
		copy(row(arena, i, s.T), s.Pairs[p])
	}
	return pairs, arena
}

// Pair returns the reproduced series for a pair, or nil.
func (s *SeriesSet) Pair(p mic.Pair) []float64 { return s.Pairs[p] }

// Disease returns x_dt = Σ_m x_dmt (Eq. 8), or nil.
func (s *SeriesSet) Disease(d mic.DiseaseID) []float64 { return s.diseases.series(d, s.T) }

// Medicine returns x_mt = Σ_d x_dmt (Eq. 8), or nil.
func (s *SeriesSet) Medicine(m mic.MedicineID) []float64 { return s.medicines.series(m, s.T) }

// Diseases returns the ids with a disease series, in ascending order.
func (s *SeriesSet) Diseases() []mic.DiseaseID { return slices.Clone(s.diseases.ids) }

// Medicines returns the ids with a medicine series, in ascending order.
func (s *SeriesSet) Medicines() []mic.MedicineID { return slices.Clone(s.medicines.ids) }

// FilterMinTotal returns a copy keeping only pairs whose total frequency
// over the whole period is at least minTotal — the paper's §VI reliability
// filter ("total frequency during the said period is less than 10"). The
// kept rows are copied into the new set's own arena. A pipeline that filters
// straight after reproducing should call ReproduceFiltered, which never
// builds the dropped pairs.
func (s *SeriesSet) FilterMinTotal(minTotal float64) *SeriesSet {
	pairs, arena := s.index()
	var kept []mic.Pair
	var keptArena []float64
	for i, p := range pairs {
		if series := row(arena, i, s.T); sum(series) >= minTotal {
			kept = append(kept, p)
			keptArena = append(keptArena, series...)
		}
	}
	return newSeriesSet(s.T, kept, keptArena)
}
