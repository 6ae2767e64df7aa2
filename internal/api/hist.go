package api

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-linear bucketing in the style of HDR histograms: values below
// subBuckets land in exact 1ns buckets; above that, each power-of-two
// range [2^(5+e), 2^(6+e)) splits into subBuckets/2 linear sub-buckets,
// bounding relative quantile error at ~1/32 ≈ 3% across the whole
// range. Coverage runs to 2^(6+maxExp) ns ≈ 17s; anything slower
// clamps into the top bucket (a request that slow has already blown
// any SLO this repo will ever set).
const (
	subBucketBits = 6
	subBuckets    = 1 << subBucketBits // 64
	maxExp        = 28
	histBuckets   = subBuckets + maxExp*(subBuckets/2) // 960
)

// bucketOf maps a latency in nanoseconds to its bucket index.
func bucketOf(ns uint64) int {
	if ns < subBuckets {
		return int(ns)
	}
	e := bits.Len64(ns) - subBucketBits // ≥ 1
	if e > maxExp {
		e = maxExp
	}
	sub := ns >> uint(e) // in [subBuckets/2, subBuckets) unless clamped
	if sub >= subBuckets {
		sub = subBuckets - 1
	}
	return subBuckets + (e-1)*(subBuckets/2) + int(sub) - subBuckets/2
}

// bucketLowNS returns the bucket's lower bound in nanoseconds — the
// value quantile lookups report, so they never overstate a latency.
func bucketLowNS(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	e := (i-subBuckets)/(subBuckets/2) + 1
	sub := uint64((i-subBuckets)%(subBuckets/2) + subBuckets/2)
	return sub << uint(e)
}

// histogram is a lock-free log-linear latency histogram behind the
// per-kind medshare_api_latency_seconds summaries. Record is two atomic
// adds, safe for any number of concurrent recorders; the whole structure
// is a few KB of fixed memory regardless of value spread.
type histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds; ~584 years before overflow
	max    atomic.Uint64
}

// Record adds one latency observation.
func (h *histogram) Record(d time.Duration) {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *histogram) Count() uint64 { return h.count.Load() }

// Max returns the largest recorded latency.
func (h *histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Sum returns the total of all recorded latencies (Prometheus summary
// exposition needs the running sum alongside the quantiles).
func (h *histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile returns the latency at quantile q in [0,1] (0.99 → p99),
// reported as the lower bound of the bucket holding that rank. The max
// is tracked exactly, so q high enough to select the last observation
// returns it exactly. Returns 0 on an empty histogram.
func (h *histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank >= n {
		return h.Max()
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return time.Duration(bucketLowNS(i))
		}
	}
	return h.Max()
}
