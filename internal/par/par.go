// Package par is the repository's one bounded pool for indexed work: every
// place that fans fn(i), i in [0, n), across goroutines — batch verification
// queries, dirty-AFT rendering, replica and region boots, the sweep's deferred
// differentials — calls Do. (The sweep's lane rounds are not indexed work:
// lanes own emulator state and are supervised, so they keep their own loop.)
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 selects GOMAXPROCS; never more than n). Indices are handed
// out by an atomic counter and each index owns whatever slot fn writes, so
// scheduling never shows in the results. The first error stops workers from
// claiming further indices and is returned. With one worker the loop runs on
// the caller's goroutine and starts none.
func Do(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		once   sync.Once
		first  error
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					once.Do(func() { first = err })
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return first
}
