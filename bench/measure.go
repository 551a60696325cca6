package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// totalAlloc returns the cumulative heap bytes allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// calibSink keeps the calibration kernel's result alive.
var calibSink float64

// calibrate runs a fixed integer + floating-point kernel and returns how
// long it took: the same instructions on every run, so a change in its
// time is a change in the machine's clock or in who shares its cores,
// not in the program. It touches no memory, so it does not see
// neighbours that only load the caches or the memory bus.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	f := 1.0
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = math.Sqrt(f*1.0000001 + float64(x&1023)*1e-9)
	}
	calibSink = f + float64(x&1)
	return time.Since(start)
}

// sample is a set of repeated measurements of one metric.
type sample []float64

func (s sample) median() float64 {
	c := slices.Clone(s)
	slices.Sort(c)
	switch n := len(c); {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

func (s sample) min() float64 {
	if len(s) == 0 {
		return 0
	}
	return slices.Min(s)
}

func (s sample) max() float64 {
	if len(s) == 0 {
		return 0
	}
	return slices.Max(s)
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / 1e6 }
func micros(d time.Duration) float64  { return float64(d) / 1e3 }
func mb(bytes uint64) float64         { return float64(bytes) / (1 << 20) }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
