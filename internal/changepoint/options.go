package changepoint

import (
	"context"
	"time"

	"mictrend/internal/kalman"
	"mictrend/internal/obs"
	"mictrend/internal/ssm"
)

// SearchMethod selects the change point search algorithm for Detect. The
// zero value is SearchExact, the paper's Algorithm 1.
type SearchMethod int

// Search methods.
const (
	// SearchExact is the serial memoized Algorithm 1: every candidate fitted
	// cold at estimation tolerances.
	SearchExact SearchMethod = iota
	// SearchBinary is the approximate Algorithm 2 (O(log T) fits).
	SearchBinary
	// SearchExactParallel runs as SearchExactPrefix at the same Workers: the
	// change point is selected by the prefix scan, Result.Fits counts prefix
	// fits, and the provenance record's Method reads "exact-prefix".
	//
	// Deprecated: use SearchExactPrefix.
	SearchExactParallel
	// SearchExactPrefix is Algorithm 1 on the prefix-checkpointed evaluator:
	// shared-parameter AIC ladders scored by checkpoint resumes replace the
	// fit-per-candidate sweep, with warm contender fits and the cold
	// refinement pass arbitrating the final selection at serial AICs, at
	// O(1)+O(contenders) fits. The ladders screen candidates by an upper
	// bound on their AIC, so agreement with SearchExact is a tested
	// property (TestExactPrefixEquivalence and the corpus regression
	// TestPrefixScanSelectionMatchesColdOnCorpus), not a proven one.
	SearchExactPrefix
)

// String names the method.
func (m SearchMethod) String() string {
	switch m {
	case SearchBinary:
		return "binary"
	case SearchExactParallel:
		return "exact-parallel"
	case SearchExactPrefix:
		return "exact-prefix"
	default:
		return "exact"
	}
}

// DetectOptions configures Detect, the options-first change point entry
// point. The zero value runs the serial exact scan of a non-seasonal model.
type DetectOptions struct {
	// Method is the search algorithm (default SearchExact).
	Method SearchMethod
	// Seasonal enables the 12-month seasonal component.
	Seasonal bool
	// Workers bounds the concurrency of SearchExactPrefix's contender warm
	// fits (≤0 = 1); ignored by SearchExact and SearchBinary. Any value
	// yields identical results.
	Workers int
	// Grain is ignored by every search method.
	//
	// Deprecated: no search reads it.
	Grain int
	// Stats, when non-nil, accumulates the search's optimizer accounting
	// (Kalman likelihood evaluations, multi-start restarts, failures). It
	// never changes results.
	Stats *ssm.FitStats
	// Observer, when non-nil, receives StageStart/StageEnd events bracketing
	// the search. Deliveries are panic-isolated: a panicking Observer loses
	// its remaining events, never the search.
	Observer obs.Observer
	// Provenance, when non-nil, is filled with the search's decision record:
	// the full AIC ladder (every candidate's score and evaluation path), the
	// binary search's bisection trail, and the selected model's optimizer
	// solution (one extra cold fit, not counted in Result.Fits). Recording
	// never changes the search's numerics, and the record is deterministic
	// under the same contract as Result.
	Provenance *Provenance
	// Trace, when non-nil, receives SearchExactPrefix's intra-scan spans
	// (one scan/prefix span per anchor ladder, one scan/contenders span, one
	// scan/refit span per cold refit, all from the calling goroutine); the
	// serial methods emit none. Deliveries are panic-isolated like
	// Observer's; a nil Trace costs nothing.
	Trace obs.SpanObserver
}

// ScanEvaluations returns how many distinct models Algorithm 1 compares for
// a series of length n: every admissible candidate plus the
// intervention-free model. The serial exact scan fits each one, so its
// Result.Fits equals ScanEvaluations(n) exactly; the prefix scan scores
// them all but fits only its anchors, contenders, and refits, so its Fits
// is usually far smaller (ssm.FitStats.Refits counts the refits).
func ScanEvaluations(n int) int {
	if c := maxCandidate(n); c >= 0 {
		return c + 2
	}
	return 1
}

// Detect runs the selected change point search on series. It consolidates
// the DetectExact/DetectBinary/DetectExactPrefix entry points behind one
// options struct: each method produces byte-identical results to its
// dedicated function, with observability (DetectOptions.Stats,
// DetectOptions.Observer) threaded through without touching the numerics.
// The deprecated SearchExactParallel runs as SearchExactPrefix.
// Cancellation surfaces as ctx's error within one in-flight model fit.
func Detect(ctx context.Context, series []float64, opts DetectOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	deliver := obs.Guard(opts.Observer, nil)
	var begin time.Time
	if deliver != nil {
		begin = time.Now()
		deliver(obs.Event{
			Kind: obs.StageStart, Stage: "scan", Month: -1,
			Total: ScanEvaluations(len(series)),
		})
	}
	var (
		res Result
		err error
	)
	switch opts.Method {
	case SearchBinary:
		res, err = binary(len(series), ContextAIC(ctx, SSMEvaluatorStats(series, opts.Seasonal, opts.Stats)), opts.Provenance)
	case SearchExactPrefix, SearchExactParallel:
		res, err = ExactPrefix(ctx, series, opts.Seasonal, PrefixOptions{
			Workers: opts.Workers, Stats: opts.Stats,
			Provenance: opts.Provenance, Trace: obs.GuardSpans(opts.Trace, nil),
		})
	default:
		res, err = exact(len(series), ContextAIC(ctx, SSMEvaluatorStats(series, opts.Seasonal, opts.Stats)), opts.Provenance)
	}
	if p := opts.Provenance; p != nil && err == nil {
		p.Seasonal = opts.Seasonal
		// One extra cold fit of the winning configuration recovers the
		// selected model's parameter vector; it replays the serial path's
		// numerics, so it never changes the result and is not counted in
		// Result.Fits.
		ws := kalman.NewWorkspace()
		if _, opt, perr := ssm.AICAtOptions(series, opts.Seasonal, res.ChangePoint, ws, ssm.FitOptions{Stats: opts.Stats}); perr == nil {
			p.Params = opt
		}
	}
	if deliver != nil && ctx.Err() == nil {
		e := obs.Event{
			Kind: obs.StageEnd, Stage: "scan", Month: -1,
			Done: res.Fits, Duration: time.Since(begin),
		}
		if err != nil {
			e.Err = err.Error()
		}
		deliver(e)
	}
	return res, err
}
