package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail metric may report. A run
// reports the highest one that still leaves at least minBeyond samples
// above it, capped at tailCap so that a faster program (more jobs per
// run) keeps reporting the same percentile.
var tailLadder = []float64{50, 75, 90, 95, 98, 99, 99.5, 99.9}

// tailCap is the highest percentile the end-to-end tail metric reports.
// Every workload holds at least 150 jobs or windows in a default run,
// well past the 100 that p90 needs.
const tailCap = 90

// minBeyond is how many samples must lie above a reported tail
// percentile for it to be a measurement rather than a single outlier.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile p ≤ maxP with at
// least minBeyond of n samples above it, and false when even the median
// does not qualify.
func tailPercentile(n int, maxP float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if p > maxP {
			break
		}
		if float64(n)*(100-p)/100 >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// interval is a half-open time span [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// union sorts and merges overlapping intervals.
func union(ivs []interval) []interval {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.end > iv.start {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	out := s[:0]
	for _, iv := range s {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func totalLen(ivs []interval) int64 {
	var t int64
	for _, iv := range union(ivs) {
		t += iv.end - iv.start
	}
	return t
}

// selfTime is the length of the union of outer minus the part of it that
// the union of inner covers: a layer's time not spent inside a deeper
// layer's span.
func selfTime(outer, inner []interval) int64 {
	o, in := union(outer), union(inner)
	var covered int64
	j := 0
	for _, a := range o {
		for j < len(in) && in[j].end <= a.start {
			j++
		}
		for k := j; k < len(in) && in[k].start < a.end; k++ {
			lo, hi := max(a.start, in[k].start), min(a.end, in[k].end)
			if hi > lo {
				covered += hi - lo
			}
		}
	}
	return totalLen(o) - covered
}
