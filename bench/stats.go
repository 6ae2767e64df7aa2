package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (exact samples, never bucketed: the driver rejects a
// time that reads the same on every run). Zero for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns Python's statistics.quantiles(xs, n=4) ("exclusive"
// method) so -runs and -compare report the spread the way the driver
// computes it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// timeMedian runs fn repeatedly on the calling goroutine and returns the
// median duration: at least minIters runs, then until either maxIters
// runs or the time budget is spent. Probes use it so a microsecond call
// gets its 200 iterations while a 30 ms one stays within the run's
// wall-clock allowance.
func timeMedian(minIters, maxIters int, budget time.Duration, fn func()) time.Duration {
	samples := make([]float64, 0, maxIters)
	begin := time.Now()
	for i := 0; i < maxIters; i++ {
		if i >= minIters && time.Since(begin) > budget {
			break
		}
		t := time.Now()
		fn()
		samples = append(samples, float64(time.Since(t)))
	}
	return time.Duration(median(samples))
}
