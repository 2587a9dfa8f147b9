package harness

import (
	"testing"
	"time"
)

func TestLatencyBucketsRoundTrip(t *testing.T) {
	// Every bucket's upper edge must map back into that bucket, and
	// indices must be monotone in the value.
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1 << 20, 1<<40 + 12345, 1 << 62} {
		i := latIndex(v)
		if i <= prev && v != 0 {
			t.Fatalf("latIndex not monotone at %d: %d <= %d", v, i, prev)
		}
		prev = i
		up := latUpper(i)
		if up < v {
			t.Fatalf("latUpper(%d)=%d below the value %d that mapped there", i, up, v)
		}
		if latIndex(up) != i {
			t.Fatalf("upper edge %d of bucket %d maps to bucket %d", up, i, latIndex(up))
		}
		// Bounded relative error: the edge overshoots by < 1/32 + 1.
		if v >= latSubCount && float64(up-v) > float64(v)/latSubCount+1 {
			t.Fatalf("bucket width at %d too coarse: upper %d", v, up)
		}
	}
}

func TestLatencyQuantiles(t *testing.T) {
	var h LatencyHist
	// 1000 observations: 900 at ~1ms, 90 at ~10ms, 10 at ~100ms.
	for i := 0; i < 900; i++ {
		h.Record(time.Millisecond)
	}
	for i := 0; i < 90; i++ {
		h.Record(10 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(100 * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	within := func(got, want time.Duration) bool {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return float64(diff) <= float64(want)/latSubCount+1
	}
	if q := h.Quantile(0.50); !within(q, time.Millisecond) {
		t.Fatalf("p50 = %v want ~1ms", q)
	}
	if q := h.Quantile(0.99); !within(q, 10*time.Millisecond) {
		t.Fatalf("p99 = %v want ~10ms", q)
	}
	if q := h.Quantile(0.999); !within(q, 100*time.Millisecond) {
		t.Fatalf("p999 = %v want ~100ms", q)
	}
	if m := h.Max(); !within(m, 100*time.Millisecond) {
		t.Fatalf("max = %v want ~100ms", m)
	}
	if m := h.Mean(); m < time.Millisecond || m > 5*time.Millisecond {
		t.Fatalf("mean = %v implausible", m)
	}
	// Monotone in q from a positive floor up to Max: a non-empty
	// histogram can never print a p99 under its p50.
	prev := time.Duration(0)
	for _, q := range []float64{0.001, 0.25, 0.50, 0.90, 0.99, 0.999, 1} {
		got := h.Quantile(q)
		if got <= 0 || got < prev {
			t.Fatalf("Quantile(%v) = %v after %v: not positive and non-decreasing", q, got, prev)
		}
		prev = got
	}
	if prev != h.Max() {
		t.Fatalf("Quantile(1) = %v, Max = %v", prev, h.Max())
	}
}

func TestLatencyMergeAndEmpty(t *testing.T) {
	var empty LatencyHist
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 || empty.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	var a, b LatencyHist
	for i := 0; i < 100; i++ {
		a.Record(time.Millisecond)
		b.Record(time.Second)
	}
	a.Merge(&b)
	a.Merge(nil)
	if a.Count() != 200 {
		t.Fatalf("merged count %d", a.Count())
	}
	if q := a.Quantile(0.25); q > 2*time.Millisecond {
		t.Fatalf("p25 after merge = %v want ~1ms", q)
	}
	if q := a.Quantile(0.99); q < 900*time.Millisecond {
		t.Fatalf("p99 after merge = %v want ~1s", q)
	}
}
