package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time (rusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentileMs is the nearest-rank q-quantile of d, in milliseconds.
func percentileMs(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := sortedDurations(d)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedFloats(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is how the spread of a set of runs is
// judged.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedFloats(v)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func minMax(v []float64) (lo, hi float64) {
	s := sortedFloats(v)
	return s[0], s[len(s)-1]
}

func sortedDurations(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedFloats(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}
