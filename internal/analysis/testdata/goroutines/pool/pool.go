// Package pool stands in for the concurrency layer: the whole package is
// allowlisted, so its goroutine fan-out is legal.
package pool

import "sync"

func Spread(n int, f func(int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}
