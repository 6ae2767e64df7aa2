package api

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every bucket's lower bound must map back to that bucket, and
	// bounds must be strictly increasing.
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		low := bucketLowNS(i)
		if got := bucketOf(low); got != i {
			t.Fatalf("bucket %d: low %d maps to bucket %d", i, low, got)
		}
		if int64(low) <= prev {
			t.Fatalf("bucket %d: low %d not increasing (prev %d)", i, low, prev)
		}
		prev = int64(low)
	}
	// Values beyond coverage clamp into the top bucket.
	if got := bucketOf(1 << 62); got != histBuckets-1 {
		t.Fatalf("overflow value mapped to bucket %d, want %d", got, histBuckets-1)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &histogram{}
	// 1..1000 microseconds, shuffled.
	vals := make([]time.Duration, 1000)
	for i := range vals {
		vals[i] = time.Duration(i+1) * time.Microsecond
	}
	rand.New(rand.NewSource(1)).Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for _, v := range vals {
		h.Record(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1000*time.Microsecond {
		t.Fatalf("max = %s", h.Max())
	}
	// Log-linear buckets bound relative error at ~1/32; allow 5%.
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.90, 900 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		lo := c.want - c.want/10 // quantile reports bucket lower bound
		if got < lo || got > c.want {
			t.Errorf("q%.2f = %s, want in [%s, %s]", c.q, got, lo, c.want)
		}
	}
	// p999 rank 999 ≤ max; must not exceed max and not undershoot p99.
	if p := h.Quantile(0.999); p > h.Max() || p < h.Quantile(0.99) {
		t.Errorf("p999 = %s out of order (p99=%s max=%s)", p, h.Quantile(0.99), h.Max())
	}
}

// TestHistogramConcurrent records from several goroutines at once (the
// handlers' situation): no observation may be lost and the CAS-tracked
// max must be exact.
func TestHistogramConcurrent(t *testing.T) {
	h := &histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(r.Intn(1e6)))
			}
			h.Record(time.Duration(seed+2) * time.Second)
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != 4004 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 5*time.Second {
		t.Fatalf("max = %s", h.Max())
	}
}
