package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it, so one outlier cannot
// set it.
const minBeyond = 10

// tailRank returns the 1-based nearest rank reported for the want
// quantile of n > 0 sorted samples: ceil(want·n), lowered until
// minBeyond samples lie above it, and never below the median's rank.
func tailRank(n int, want float64) int {
	rank := int(math.Ceil(want*float64(n) - 1e-9))
	if top := n - minBeyond; rank > top {
		rank = top
	}
	if med := (n + 1) / 2; rank < med {
		rank = med
	}
	return rank
}

// dist is a sorted sample of one quantity.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

func durations(ds []time.Duration, unit time.Duration) dist {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return newDist(xs)
}

// chunkMedians splits xs, in the order given, into consecutive groups
// of size and returns the groups' medians in unit. A short last group
// is dropped unless it is the only one.
func chunkMedians(xs []time.Duration, size int, unit time.Duration) dist {
	var meds []float64
	for i := 0; i < len(xs); i += size {
		if i+size > len(xs) && i > 0 {
			break
		}
		meds = append(meds, durations(xs[i:min(i+size, len(xs))], unit).median())
	}
	return newDist(meds)
}

// median returns the 50th percentile (nearest rank), 0 when empty.
func (d dist) median() float64 {
	if len(d) == 0 {
		return 0
	}
	return d[(len(d)+1)/2-1]
}

// tail returns the value at the want quantile under the percentile rule
// and the quantile actually reported (want, or lower when the sample is
// too small to leave minBeyond samples above want). 0, 0 when empty.
func (d dist) tail(want float64) (value, q float64) {
	if len(d) == 0 {
		return 0, 0
	}
	r := tailRank(len(d), want)
	return d[r-1], float64(r) / float64(len(d))
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// ratio is a/b, 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
