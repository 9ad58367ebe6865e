package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind identifies a progress event.
type EventKind uint8

// Event kinds.
const (
	// StageStart opens a pipeline stage ("model", "reproduce", "detect",
	// "scan"); Total carries the stage's planned unit count when known.
	StageStart EventKind = iota
	// StageEnd closes a stage; Duration carries its wall-clock.
	StageEnd
	// MonthFitted reports one month's medication model fit (stage "model").
	MonthFitted
	// SeriesDone reports one series' change point search (stage "detect").
	SeriesDone
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case StageStart:
		return "stage-start"
	case StageEnd:
		return "stage-end"
	case MonthFitted:
		return "month-fitted"
	default:
		return "series-done"
	}
}

// Event is one structured progress event. All fields except Duration are
// deterministic for a deterministic workload; per-unit events are delivered
// in serial-equivalent order (months ascending, series in job order)
// regardless of worker count.
type Event struct {
	// Kind is the event type.
	Kind EventKind
	// Stage is the owning pipeline stage.
	Stage string
	// Total is the stage's planned unit count (StageStart; -1 when unknown).
	Total int
	// Done is the number of units completed including this one
	// (MonthFitted/SeriesDone).
	Done int
	// Month is the fitted month (MonthFitted; -1 otherwise).
	Month int
	// Series identifies the finished series (SeriesDone), e.g.
	// "prescription:3/7".
	Series string
	// Err is non-empty when the unit degraded or failed; the unit's failure
	// is also recorded in Analysis.Failures.
	Err string
	// Duration is the unit's (or stage's, for StageEnd) wall-clock time. It
	// is the one nondeterministic field.
	Duration time.Duration
}

// String renders the event for logs.
func (e Event) String() string {
	switch e.Kind {
	case StageStart:
		return fmt.Sprintf("%s %s (%d units)", e.Kind, e.Stage, e.Total)
	case StageEnd:
		return fmt.Sprintf("%s %s (%v)", e.Kind, e.Stage, e.Duration)
	case MonthFitted:
		if e.Err != "" {
			return fmt.Sprintf("%s month %d: %s", e.Kind, e.Month, e.Err)
		}
		return fmt.Sprintf("%s month %d (%d/%d)", e.Kind, e.Month, e.Done, e.Total)
	default:
		if e.Err != "" {
			return fmt.Sprintf("%s %s: %s", e.Kind, e.Series, e.Err)
		}
		return fmt.Sprintf("%s %s (%d/%d)", e.Kind, e.Series, e.Done, e.Total)
	}
}

// Observer receives progress events. A nil Observer disables event delivery
// at zero cost. Deliveries are serialized — an Observer never runs
// concurrently with itself — and arrive in serial-equivalent order for any
// worker count. Observers should return quickly: a slow callback backpressures
// the sequencer's flush (not the workers' compute, but their completion
// accounting).
type Observer func(Event)

// Guard wraps cb with panic isolation: the first panic in cb invokes onPanic
// with the recovered value, permanently disables delivery, and subsequent
// events are dropped — a broken user callback can cost its own events but
// never a pipeline worker. A nil cb returns nil (the disabled path keeps its
// zero cost); a nil onPanic just disables silently.
func Guard(cb Observer, onPanic func(r any)) Observer {
	if cb == nil {
		return nil
	}
	var disabled atomic.Bool
	return func(e Event) {
		if disabled.Load() {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				disabled.Store(true)
				if onPanic != nil {
					onPanic(r)
				}
			}
		}()
		cb(e)
	}
}

// Sequencer re-orders per-unit completions from concurrent workers into
// serial (index) order, mirroring the exact scans' deterministic
// reductions: unit i's emit callback runs only after units 0..i-1 have
// emitted, under the sequencer's lock (so emits are also mutually
// serialized). Workers call Done once per unit, in any order; emits for
// indices past a permanent hole (a unit that will never report, e.g. after
// cancellation) are simply never flushed — Done never blocks.
type Sequencer struct {
	mu      sync.Mutex
	next    int
	pending map[int]func()
}

// NewSequencer returns a sequencer expecting indices starting at 0.
func NewSequencer() *Sequencer {
	return &Sequencer{pending: make(map[int]func())}
}

// Done reports unit i complete, with emit the callback to run in serial
// order (emit may be nil to just advance the cursor). Each index must be
// reported at most once.
func (s *Sequencer) Done(i int, emit func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending[i] = emit
	for {
		f, ok := s.pending[s.next]
		if !ok {
			return
		}
		delete(s.pending, s.next)
		s.next++
		if f != nil {
			f()
		}
	}
}
