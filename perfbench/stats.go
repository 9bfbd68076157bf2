package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail metric may report, from
// the highest down. The tail is the highest of these that leaves at
// least minBeyond samples above it.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// rankOf returns the nearest-rank index (0-based) of percentile p in a
// sorted sample of n values.
func rankOf(p float64, n int) int {
	// The epsilon keeps p*n/100 from rounding up past an exact rank
	// (99.9% of 10000 is 9990, not 9990.000000000002).
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n samples beyond it, or 0 when even the median has too
// few (n < 2*minBeyond).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-1-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile estimates percentile p of xs (unsorted; xs is not
// modified) with the Harrell-Davis estimator: a Beta-weighted average
// of every order statistic around the nearest rank. Where the sample
// has a gap at p — the retrieve sizes are bimodal, and their median
// falls between small files and 16 MB ones — a single order statistic
// jumps across the gap from run to run, while the weighted average
// moves smoothly. Zero for an empty sample.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	a, b := p/100*float64(n+1), (1-p/100)*float64(n+1)
	if b <= 0 {
		return s[n-1]
	}
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := incBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// incBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz).
func incBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	if x > (a+1)/(a+b+2) {
		return 1 - incBeta(b, a, 1-x)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab-la-lb+a*math.Log(x)+b*math.Log(1-x)) / a
	const tiny = 1e-300
	f, c, d := 1.0, 1.0, 0.0
	for m := 0; m <= 300; m++ {
		for k := 0; k < 2; k++ {
			var num float64
			switch {
			case m == 0 && k == 0:
				num = 1
			case k == 0:
				mf := float64(m)
				num = mf * (b - mf) * x / ((a + 2*mf - 1) * (a + 2*mf))
			default:
				mf := float64(m)
				num = -(a + mf) * (a + b + mf) * x / ((a + 2*mf) * (a + 2*mf + 1))
			}
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			d = 1 / d
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			f *= c * d
			if math.Abs(c*d-1) < 1e-12 {
				return front * (f - 1)
			}
		}
	}
	return front * (f - 1)
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// interval is a half-open time interval in nanoseconds.
type interval struct{ start, end int64 }

// coveredBy returns how much of [w.start, w.end) the union of ivs
// covers. Overlapping intervals count once, so two chunk transfers in
// flight together cover their common stretch a single time.
func coveredBy(w interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, w.start), min(iv.end, w.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		if !open || iv.start > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = iv.start, iv.end, true
			continue
		}
		curE = max(curE, iv.end)
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the union of its children's
// intervals.
func selfTime(span interval, children []interval) int64 {
	return span.end - span.start - coveredBy(span, children)
}
