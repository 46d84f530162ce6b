package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between closest ranks; q in [0,1].
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method) — the rule the benchmark's bounds are judged
// by. Fewer than two samples have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	quart := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / med
}

var spinSink uint64

// calibrationSpin runs a fixed amount of pure-CPU work (no memory traffic, no
// allocation) and returns how long it took. Two spins that bracket a
// workload and disagree mean the machine's speed changed underneath it.
func calibrationSpin(iters int) time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return time.Since(start)
}

// memCounters are the allocation counters an op's cost is read from.
type memCounters struct{ mallocs, bytes uint64 }

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.Mallocs, m.TotalAlloc}
}

// liveHeapMB forces two collections (the second frees what finalizers
// released in the first) and reports what is still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// gcCounters samples the runtime's own CPU accounting.
type gcCounters struct{ gcCPU, busyCPU, cycles float64 }

func readGC() gcCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcCounters{
		gcCPU:   s[0].Value.Float64(),
		busyCPU: s[1].Value.Float64() - s[2].Value.Float64(),
		cycles:  float64(s[3].Value.Uint64()),
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM); zero
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1e3
		}
	}
	return 0
}
