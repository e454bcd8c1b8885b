package main

import (
	"math"
	"sort"
)

// stat is how every metric is reported: the median of its samples with the
// spread that says how far to trust it.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	IQR    float64 `json:"iqr"`
	MAD    float64 `json:"mad"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqr is the distance between the first and third quartile as Python's
// statistics.quantiles(xs, n=4) cuts them (the "exclusive" method), so the
// spread printed here is the one an outside checker would compute.
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(3) - cut(1)
}

// mad is the median absolute deviation from the median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

func summarize(xs []float64, unit string) stat {
	if len(xs) == 0 {
		return stat{Unit: unit}
	}
	s := sorted(xs)
	return stat{Median: median(s), Min: s[0], Max: s[len(s)-1], IQR: iqr(s), MAD: mad(s), N: len(s), Unit: unit}
}
