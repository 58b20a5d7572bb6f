package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// micros converts durations to sorted microsecond values.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	slices.Sort(out)
	return out
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match ones computed in Python. It needs
// at least two values.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// mannWhitneyP is the two-sided Mann–Whitney U test p-value for samples a
// and b: exact when there are no ties and the samples are small, the
// tie-corrected normal approximation otherwise.
func mannWhitneyP(a, b []float64) float64 {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 1
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	slices.SortFunc(all, func(x, y obs) int {
		switch {
		case x.v < y.v:
			return -1
		case x.v > y.v:
			return 1
		}
		return 0
	})
	// Mid-ranks; ties share the mean of their ranks.
	var rankA, tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		r := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			if all[k].fromA {
				rankA += r
			}
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	u := rankA - float64(n1*(n1+1))/2
	uMin := math.Min(u, float64(n1*n2)-u)
	if tieTerm == 0 && n1*n2 <= 400 {
		// Exact: count arrangements with U <= uMin, doubled for two sides.
		p := 2 * uCDF(n1, n2, int(uMin))
		return math.Min(p, 1)
	}
	n := float64(n1 + n2)
	mu := float64(n1*n2) / 2
	sigma := math.Sqrt(float64(n1*n2) / 12 * (n + 1 - tieTerm/(n*(n-1))))
	if sigma == 0 {
		return 1
	}
	z := (math.Abs(u-mu) - 0.5) / sigma
	return math.Min(math.Erfc(math.Max(z, 0)/math.Sqrt2), 1)
}

// uCDF is P(U <= k) under the null hypothesis, from the recurrence
// c(n1, n2, k) = c(n1-1, n2, k-n2) + c(n1, n2-1, k) over arrangement counts.
func uCDF(n1, n2, k int) float64 {
	maxU := n1 * n2
	// dp[j][u] counts arrangements of i values from a and j from b with U = u.
	dp := make([][]float64, n2+1)
	for j := range dp {
		dp[j] = make([]float64, maxU+1)
		dp[j][0] = 1
	}
	for i := 1; i <= n1; i++ {
		next := make([][]float64, n2+1)
		for j := range next {
			next[j] = make([]float64, maxU+1)
			for u := 0; u <= maxU; u++ {
				// The largest value comes from a (it beats all j values of b)
				// or from b.
				if u >= j {
					next[j][u] += dp[j][u-j]
				}
				if j > 0 {
					next[j][u] += next[j-1][u]
				}
			}
		}
		dp = next
	}
	var below, total float64
	for u, c := range dp[n2] {
		total += c
		if u <= k {
			below += c
		}
	}
	return below / total
}
