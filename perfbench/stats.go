package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs, 0 < q < 1, and
// whether at least minBeyond samples lie beyond it. Callers report a
// percentile only when ok is true.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], n-1-rank >= minBeyond
}

// samplesFor returns how many samples a q-percentile needs before
// percentile reports it.
func samplesFor(q float64) int {
	for n := 1; ; n++ {
		if _, ok := percentile(make([]float64, n), q); ok {
			return n
		}
	}
}

// heapPeak samples the live heap object bytes every few milliseconds
// until stopped, tracking the maximum. The sampler is one mostly-sleeping
// goroutine; runtime/metrics reads do not stop the world.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	//lint:ignore goroutines the sampler must run beside the measured work; stopMB stops and waits for it
	go func() {
		defer h.wg.Done()
		//lint:ignore determinism the sampling period is wall time; samples only feed peak_heap_mb
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// stopMB stops the sampler, waits for it to exit and returns the peak in
// megabytes (10^6 bytes).
func (h *heapPeak) stopMB() float64 {
	close(h.stop)
	h.wg.Wait()
	h.sample()
	return float64(h.peak) / 1e6
}

// sortedKeys returns the keys of m in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
