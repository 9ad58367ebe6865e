package changepoint

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"strconv"
	"testing"
	"time"

	"mictrend/internal/faultpoint"
	"mictrend/internal/ssm"
)

// randomSeries builds a seeded random-walk series, with a slope break at a
// seed-dependent month on odd seeds so the property tests cover both the
// detected and undetected outcomes.
func randomSeries(seed uint64, n int) []float64 {
	rng := rand.New(rand.NewPCG(seed, 991))
	y := make([]float64, n)
	level := 10 + rng.Float64()*20
	cp := NoBreak
	if seed%2 == 1 {
		cp = n/3 + int(seed%uint64(n/3))
	}
	for t := range y {
		level += rng.NormFloat64() * 0.3
		y[t] = level + rng.NormFloat64()*0.5
		if cp != NoBreak {
			y[t] += 0.8 * ssm.InterventionRegressor(cp, t)
		}
	}
	return y
}

// NoBreak marks seeds whose series carries no synthetic break.
const NoBreak = -1

// waitGoroutines polls until the goroutine count drops back to base or the
// deadline passes, returning the final count.
func waitGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestExactPrefixEquivalence is the tentpole's selection contract: the
// prefix-checkpointed scan picks the serial exact scan's change point with
// bitwise-identical AIC and NoChangeAIC, across random series (break and
// no-break, seasonal and not) and worker counts, with a worker-invariant
// Fits count and the expected two-ladder resume accounting.
func TestExactPrefixEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many real scans")
	}
	type tc struct {
		seed     uint64
		n        int
		seasonal bool
	}
	cases := []tc{
		{seed: 1, n: 26, seasonal: false},
		{seed: 2, n: 34, seasonal: false},
		{seed: 3, n: 19, seasonal: false},
		{seed: 4, n: 22, seasonal: true},
		{seed: 5, n: 20, seasonal: true},
	}
	for _, c := range cases {
		y := randomSeries(c.seed, c.n)
		want, err := DetectExact(y, c.seasonal)
		if err != nil {
			t.Fatalf("seed %d: serial: %v", c.seed, err)
		}
		var base Result
		for _, workers := range []int{1, 2, 8} {
			stats := &ssm.FitStats{}
			got, err := ExactPrefix(context.Background(), y, c.seasonal, PrefixOptions{
				Workers: workers, Stats: stats,
			})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", c.seed, workers, err)
			}
			if got.ChangePoint != want.ChangePoint || got.AIC != want.AIC || got.NoChangeAIC != want.NoChangeAIC {
				t.Fatalf("seed %d workers %d: prefix %+v != serial %+v", c.seed, workers, got, want)
			}
			if workers == 1 {
				base = got
			} else if got != base {
				t.Fatalf("seed %d workers %d: prefix scan not worker-invariant: %+v != %+v",
					c.seed, workers, got, base)
			}
			// The anchor phase runs 2..4 full ladders (two anchors plus the
			// bounded chase), each one resume per candidate.
			perLadder := int64(maxCandidate(c.n) + 1)
			resumes := stats.PrefixResumes.Load()
			if resumes%perLadder != 0 || resumes < 2*perLadder || resumes > 4*perLadder {
				t.Fatalf("seed %d workers %d: resumes %d, want a small multiple of %d",
					c.seed, workers, resumes, perLadder)
			}
		}
	}
}

// TestExactPrefixProvenance checks the scan's decision record: the full
// ladder in serial order, the no-intervention model cold, every candidate
// tagged prefix/warm/refit, a refit-path winner carrying both AICs, and
// FitStats.Refits counting exactly the refit rungs.
func TestExactPrefixProvenance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real scan")
	}
	y := randomSeries(1, 26)
	var prov Provenance
	stats := &ssm.FitStats{}
	res, err := ExactPrefix(context.Background(), y, false, PrefixOptions{Provenance: &prov, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if prov.Method != "exact-prefix" || prov.N != len(y) {
		t.Fatalf("header = %s/%d, want exact-prefix/%d", prov.Method, prov.N, len(y))
	}
	if prov.ChangePoint != res.ChangePoint || prov.AIC != res.AIC || prov.Fits != res.Fits {
		t.Fatalf("provenance outcome %+v does not mirror result %+v", prov, res)
	}
	wantLen := maxCandidate(len(y)) + 2
	if len(prov.Candidates) != wantLen {
		t.Fatalf("ladder has %d rungs, want %d", len(prov.Candidates), wantLen)
	}
	if first := prov.Candidates[0]; first.CP != ssm.NoChangePoint || first.Path != PathCold {
		t.Fatalf("first rung = %+v, want the cold no-intervention fit", first)
	}
	var fitted, screened, refits int
	for i, c := range prov.Candidates[1:] {
		if c.CP != i {
			t.Fatalf("rung %d holds cp %d, want serial order", i+1, c.CP)
		}
		switch c.Path {
		case PathRefit:
			refits++
			fitted++
		case PathWarm:
			fitted++
		case PathPrefix:
			screened++
		default:
			t.Fatalf("cp %d has path %q", c.CP, c.Path)
		}
		if c.CP == res.ChangePoint {
			if c.Path != PathRefit {
				t.Fatalf("winner's path = %q, want a cold refit", c.Path)
			}
			if c.AIC != res.AIC || c.WarmAIC == 0 {
				t.Fatalf("winner rung %+v does not carry both AICs (result %v)", c, res.AIC)
			}
		}
	}
	if fitted == 0 || screened == 0 {
		t.Fatalf("ladder fitted %d / screened %d; the screen did no work", fitted, screened)
	}
	if got := stats.Refits.Load(); got != int64(refits) || refits == 0 {
		t.Fatalf("stats.Refits = %d, want the %d refit rungs (and at least one)", got, refits)
	}
}

// TestExactPrefixFaultInjection covers the checkpoint-resume fault site: an
// injected failure at one resume aborts the scan with the injected error
// (the pipeline degrades that series), and a reset restores clean scans.
func TestExactPrefixFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real scan")
	}
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Enable(prefixFault, faultpoint.Spec{
		Match: func(detail string) bool { return detail == "7" },
	})
	y := randomSeries(1, 26)
	_, err := ExactPrefix(context.Background(), y, false, PrefixOptions{})
	if err == nil || !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("err = %v, want the injected resume failure", err)
	}
	faultpoint.Reset()
	if _, err := ExactPrefix(context.Background(), y, false, PrefixOptions{}); err != nil {
		t.Fatalf("clean scan after reset failed: %v", err)
	}
}

// TestExactPrefixPanicPropagates injects a panic into the winning
// candidate's model fit — a fit the scan performs, serially or on a
// contender worker — and checks it re-panics on the calling goroutine
// without leaking workers, so the pipeline's per-series isolation holds.
func TestExactPrefixPanicPropagates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scans")
	}
	y := randomSeries(1, 26)
	clean, err := ExactPrefix(context.Background(), y, false, PrefixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Detected() {
		t.Fatal("test series should carry a detectable break")
	}
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Enable(scanFault, faultpoint.Spec{
		Panic: true,
		Match: func(detail string) bool { return detail == strconv.Itoa(clean.ChangePoint) },
	})
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		_, _ = ExactPrefix(context.Background(), y, false, PrefixOptions{Workers: 4})
	}()
	if after := waitGoroutines(before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestExactPrefixCancellation covers both cancellation paths: a context
// cancelled before the scan and one cancelled mid-ladder. Both return the
// context's error verbatim.
func TestExactPrefixCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scans")
	}
	y := randomSeries(1, 26)
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExactPrefix(pre, y, false, PrefixOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}

	faultpoint.Reset()
	defer faultpoint.Reset()
	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	hits := 0
	faultpoint.Enable(prefixFault, faultpoint.Spec{
		// Never fires; used purely to cancel after a few resumes.
		Match: func(string) bool {
			hits++
			if hits == 5 {
				cancelMid()
			}
			return false
		},
	})
	if _, err := ExactPrefix(ctx, y, false, PrefixOptions{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan err = %v, want context.Canceled", err)
	}
}

// TestExactPrefixShortSeries pins the degenerate lengths: the prefix scan
// errors exactly where the serial scan does.
func TestExactPrefixShortSeries(t *testing.T) {
	if _, err := ExactPrefix(context.Background(), []float64{1}, false, PrefixOptions{}); err == nil {
		t.Fatal("length 1 accepted")
	}
	y := []float64{1, 2, 3, 4}
	_, serialErr := DetectExact(y, false)
	_, prefixErr := ExactPrefix(context.Background(), y, false, PrefixOptions{})
	if (serialErr == nil) != (prefixErr == nil) {
		t.Fatalf("serial err = %v, prefix err = %v; the scans disagree on admissibility", serialErr, prefixErr)
	}
}
