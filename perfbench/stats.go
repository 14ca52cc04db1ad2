package main

import (
	"fmt"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first. The tail metric is named after its ceiling (p99); with fewer
// samples it steps down the ladder so that the reported percentile always
// has at least minBeyond samples above it.
var tailLadder = []int{99, 95, 90, 75, 50}

// minBeyond is the number of samples a reported percentile must have
// beyond it.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n, p int) int { return (p*n + 99) / 100 }

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it. With too few samples for any tail it
// returns 50: the median is then the only defensible figure, and the
// sample count printed beside it says so.
func tailPercentile(n int) int {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// quantile returns the nearest-rank p-th percentile of sorted.
func quantile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(len(sorted), p), 1)-1]
}

// latencySummary is a timing distribution reduced to the figures the
// benchmark reports: the median, the tail at the highest percentile with
// enough samples beyond it, and the sample count.
type latencySummary struct {
	n       int
	p50     time.Duration
	tailP   int
	tail    time.Duration
	samples []int64
}

func summarize(ns []int64) latencySummary {
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p := tailPercentile(len(sorted))
	return latencySummary{
		n:       len(sorted),
		p50:     time.Duration(quantile(sorted, 50)),
		tailP:   p,
		tail:    time.Duration(quantile(sorted, p)),
		samples: sorted,
	}
}

func (s latencySummary) String() string {
	return fmt.Sprintf("p50=%.1fus p%d=%.1fus (n=%d)", us(s.p50), s.tailP, us(s.tail), s.n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// interval is a half-open time interval in nanoseconds.
type interval struct{ start, end int64 }

// unionWithin returns the total length of the union of ivs clipped to
// [lo, hi). Children of one span may overlap — a sharded fan-out sends to
// every shard at once — so their durations cannot simply be summed.
func unionWithin(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - unionWithin(children, parent.start, parent.end)
}

// medianFloat returns the median of xs (0 for none).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
