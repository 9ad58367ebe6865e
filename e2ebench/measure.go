package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readRuntime reads the named runtime/metrics values as float64s.
func readRuntime(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

const liveHeapMetric = "/gc/heap/live:bytes"

// heapSampler tracks the peak live heap (the heap marked live by the latest
// GC) while a timed region runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.observe()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := readRuntime(liveHeapMetric)[0]
	h.mu.Lock()
	h.peak = math.Max(h.peak, v)
	h.mu.Unlock()
}

// end stops the sampler and returns the peak in bytes.
func (h *heapSampler) end() float64 {
	close(h.stop)
	h.done.Wait()
	h.observe()
	return h.peak
}

// timed measures one timed region: wall clock, process CPU and peak live
// heap. begin collects garbage first, so the peak reflects the region and
// the inputs it holds, not the garbage set-up left behind.
type timed struct {
	t0   time.Time
	c0   time.Duration
	heap *heapSampler
}

func beginTimed() *timed {
	runtime.GC()
	return &timed{t0: time.Now(), c0: cpuTime(), heap: startHeapSampler()}
}

func (t *timed) end() (wall, cpu time.Duration, peakHeap float64) {
	wall = time.Since(t.t0)
	cpu = cpuTime() - t.c0
	return wall, cpu, t.heap.end()
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond the reported tail.
const tailSamples = 10

// tail returns the p90 of xs, or, when fewer than tailSamples samples lie
// beyond the p90, the highest percentile that has tailSamples beyond it; and
// the percentile it returned.
func tail(xs []float64) (value, percentile float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := len(s)
	i := int(math.Ceil(0.9*float64(n))) - 1
	if j := n - 1 - tailSamples; j >= 0 && j < i {
		i = j
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
