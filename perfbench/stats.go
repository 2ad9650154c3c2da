package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile; a
// p99 over fewer than 1000 samples would rest on less than ten.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of vals by the
// nearest-rank rule, refusing when fewer than minTail samples lie beyond
// it. vals is sorted in place.
func percentile(vals []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile: q=%v outside (0,1)", q)
	}
	n := len(vals)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 || n-rank < minTail {
		return 0, fmt.Errorf("percentile: p%g of %d samples leaves %d beyond it, need %d",
			100*q, n, n-rank, minTail)
	}
	sort.Float64s(vals)
	return vals[rank-1], nil
}

// median returns the median of vals (0 for none); vals is sorted in place.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// slope is the least-squares slope of y on x and their correlation.
func slope(x, y []float64) (b, r float64) {
	n := float64(len(x))
	if n < 2 {
		return 0, 0
	}
	mx, my := mean(x), mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, 0
	}
	return sxy / sxx, sxy / math.Sqrt(sxx*syy)
}
