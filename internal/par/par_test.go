package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// onCallerGoroutine reports whether the test function that called Do (the
// function itself, not one of its closures) is on the current goroutine's
// stack — true exactly when fn was not handed to a worker goroutine.
func onCallerGoroutine() bool {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "par.TestDoInlineRunsOnCaller") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestDoVisitsEveryIndexOnce: every index runs exactly once and writes its
// own slot, at any worker count — including more workers than indices, the
// GOMAXPROCS default, and the empty range.
func TestDoVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 257} {
		for _, workers := range []int{1, 2, 8, n + 3, 0, -4} {
			visits := make([]atomic.Int32, n)
			slots := make([]int, n)
			err := Do(n, workers, func(i int) error {
				visits[i].Add(1)
				slots[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range slots {
				if v := visits[i].Load(); v != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
				if slots[i] != i*i {
					t.Errorf("n=%d workers=%d: slot %d = %d, want %d", n, workers, i, slots[i], i*i)
				}
			}
		}
	}
}

// TestDoDefaultsToGOMAXPROCS: a non-positive worker count fans out across
// exactly GOMAXPROCS goroutines. Every fn blocks until that many are in
// flight at once, so fewer workers would deadlock and more would overshoot
// the peak.
func TestDoDefaultsToGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, workers := range []int{0, -4} {
		var (
			mu             sync.Mutex
			inflight, peak int
			full           = make(chan struct{})
		)
		err := Do(3*4, workers, func(int) error {
			mu.Lock()
			inflight++
			if inflight > peak {
				peak = inflight
			}
			if inflight == 3 {
				select {
				case <-full:
				default:
					close(full)
				}
			}
			mu.Unlock()
			<-full
			mu.Lock()
			inflight--
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if peak != 3 {
			t.Errorf("workers=%d: peak concurrency %d, want GOMAXPROCS=3", workers, peak)
		}
	}
}

// TestDoInlineRunsOnCaller: when the clamp leaves one worker (asked for one,
// or only one index to run) fn runs on the caller's goroutine; with real
// fan-out it does not.
func TestDoInlineRunsOnCaller(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{4, 1}, {1, 8}, {1, 0}} {
		if err := Do(c.n, c.workers, func(int) error {
			if !onCallerGoroutine() {
				return fmt.Errorf("fn ran off the caller's goroutine")
			}
			return nil
		}); err != nil {
			t.Errorf("n=%d workers=%d: %v", c.n, c.workers, err)
		}
	}
	if err := Do(4, 2, func(int) error {
		if onCallerGoroutine() {
			return fmt.Errorf("fn ran on the caller's goroutine")
		}
		return nil
	}); err != nil {
		t.Errorf("n=4 workers=2: %v", err)
	}
}

// TestDoFirstErrorStopsNewWork: the first error comes back and nothing is
// started after it. Inline that is exact: the failing index is the last one
// run. In parallel every fn fails, so each worker records an error after its
// first index and must not claim a second.
func TestDoFirstErrorStopsNewWork(t *testing.T) {
	boom := errors.New("boom")
	started := 0
	err := Do(10, 1, func(i int) error {
		started++
		if i == 3 {
			return boom
		}
		return nil
	})
	if err != boom || started != 4 {
		t.Errorf("inline: err=%v after %d starts, want boom after 4", err, started)
	}

	const workers = 8
	var calls atomic.Int32
	errs := make([]error, 1000)
	for i := range errs {
		errs[i] = fmt.Errorf("index %d", i)
	}
	err = Do(len(errs), workers, func(i int) error {
		calls.Add(1)
		return errs[i]
	})
	if c := calls.Load(); c < 1 || c > workers {
		t.Errorf("parallel: %d indices started, want 1..%d (one per worker at most)", c, workers)
	}
	found := false
	for _, e := range errs[:workers] {
		found = found || e == err
	}
	if !found {
		t.Errorf("parallel: returned %v, not the error of a started index", err)
	}
}
