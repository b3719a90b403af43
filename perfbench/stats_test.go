package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		cap    float64
		want   float64
		wantOK bool
	}{
		{n: 19, cap: 99, wantOK: false}, // median leaves 9.5 beyond
		{n: 20, cap: 99, want: 50, wantOK: true},
		{n: 39, cap: 99, want: 50, wantOK: true},
		{n: 40, cap: 99, want: 75, wantOK: true},
		{n: 100, cap: 99, want: 90, wantOK: true},
		{n: 199, cap: 99, want: 90, wantOK: true},
		{n: 200, cap: 99, want: 95, wantOK: true},
		{n: 1000, cap: 99, want: 99, wantOK: true},
		{n: 100000, cap: 99.9, want: 99.9, wantOK: true},
		{n: 5000, cap: 95, want: 95, wantOK: true}, // capped: more jobs keep the percentile
	} {
		got, ok := tailPercentile(c.n, c.cap)
		if ok != c.wantOK || got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, %v; want %g, %v", c.n, c.cap, got, ok, c.want, c.wantOK)
		}
		if ok && float64(c.n)*(100-got)/100 < minBeyond {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond", c.n, got, minBeyond)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

func TestSelfTimeSubtractsCoveredIntervals(t *testing.T) {
	iv := func(a, b int64) interval { return interval{a, b} }
	for _, c := range []struct {
		name         string
		outer, inner []interval
		want         int64
	}{
		{"no children", []interval{iv(0, 100)}, nil, 100},
		{"one child", []interval{iv(0, 100)}, []interval{iv(10, 30)}, 80},
		{"overlapping children count once", []interval{iv(0, 100)}, []interval{iv(10, 30), iv(20, 40)}, 70},
		{"child outside the span", []interval{iv(0, 100)}, []interval{iv(150, 200)}, 100},
		{"child straddling both ends", []interval{iv(50, 100)}, []interval{iv(0, 60), iv(90, 120)}, 30},
		{"overlapping outer spans merge", []interval{iv(0, 50), iv(40, 100)}, []interval{iv(45, 55)}, 90},
		{"fully covered", []interval{iv(0, 10)}, []interval{iv(0, 10)}, 0},
		{"one child across two spans", []interval{iv(0, 10), iv(20, 30)}, []interval{iv(5, 25)}, 10},
	} {
		if got := selfTime(c.outer, c.inner); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfSharesPartitionJobTime(t *testing.T) {
	// One job of 100ns: a load span [0,20) with a transport call [5,15)
	// that a storage handle [8,12) sits in, and a task [30,80). The
	// job's remaining 30ns are unattributed.
	spans := []span{
		{name: "job", start: 0, end: 100, job: "j"},
		{name: "hurricane.load", start: 0, end: 20, job: "j"},
		{name: "transport.call", start: 5, end: 15, job: "j"},
		{name: "storage.handle", start: 8, end: 12, job: "j"},
		{name: "core.task", start: 30, end: 80, job: "j"},
		{name: "core.task", start: 0, end: 100, job: "other-job"},
	}
	got := selfShares(spans, map[string]bool{"j": true})
	want := map[string]float64{
		"hurricane": 0.10, "transport": 0.06, "storage": 0.04, "core": 0.50, "unattributed": 0.30,
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-9 {
			t.Errorf("%s self share = %g, want %g", l, got[l], w)
		}
	}
}
