package stats

import (
	"math/rand"
	"testing"
	"time"
)

func TestLogHistTail(t *testing.T) {
	var h LogHist
	// 1000 fast requests at ~1ms, five slow outliers at 50ms: the outliers
	// are past the p999 rank, so the tail quantile must surface them.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		h.Observe(50 * time.Millisecond)
	}

	p50, p99, p999, max := h.Tail()
	if max != 50*time.Millisecond {
		t.Errorf("max = %v, want 50ms", max)
	}
	if p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ≤ 2ms", p50)
	}
	if p99 > 2*time.Millisecond {
		t.Errorf("p99 = %v, want ≤ 2ms (outliers are 5 in 1005)", p99)
	}
	// The outliers hold the p999+ range: the estimate must land within their
	// bucket, well above the fast mass.
	if p999 < 10*time.Millisecond || p999 > 50*time.Millisecond {
		t.Errorf("p999 = %v, want within the outliers' bucket", p999)
	}
	if h.Count() != 1005 {
		t.Errorf("count = %d, want 1005", h.Count())
	}
	if want := 1000*time.Millisecond + 250*time.Millisecond; h.Sum() != want {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
	if h.Min() != time.Millisecond {
		t.Errorf("min = %v, want 1ms", h.Min())
	}
}

func TestLogHistEmptyAndClamps(t *testing.T) {
	var h LogHist
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(-time.Second) // negative durations clamp to 0
	if h.Max() != 0 || h.Min() != 0 {
		t.Errorf("negative observation should clamp: max=%v min=%v", h.Max(), h.Min())
	}
	h.Observe(100 * time.Second) // beyond the last bound: overflow bucket
	if h.Quantile(1) != 100*time.Second {
		t.Errorf("q=1 should be the exact max, got %v", h.Quantile(1))
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 2 || counts[0] != 1 || counts[1] != 1 {
		t.Errorf("buckets = %v %v, want two single-count buckets", bounds, counts)
	}
}

func TestLogHistQuantileMonotone(t *testing.T) {
	var h LogHist
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		h.Observe(time.Duration(rng.Int63n(int64(time.Second))))
	}
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}
