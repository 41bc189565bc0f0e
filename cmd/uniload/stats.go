//go:build linux

package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile (0..1) of vals by nearest rank on a
// sorted copy; 0 for an empty slice.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vals))
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

func minOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return slices.Min(vals)
}

func maxOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return slices.Max(vals)
}

// ratio is a/b, or 0 when b is 0 — per-layer ratios of counters that did
// not move in a workload read 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usOf converts nanoseconds to microseconds.
func usOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
