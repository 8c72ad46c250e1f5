package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// a p99 over 200 samples is the second-worst sample, not a p99.
const minTail = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank q-quantile of sorted (0 < q < 1)
// and how many samples lie strictly beyond its rank.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	k := rank(n, q)
	return sorted[k-1], n - k
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailQuantile is quantile with the minTail rule enforced: it fails
// when too few samples lie beyond the rank to support the claim.
func tailQuantile(sorted []float64, q float64) (float64, error) {
	v, beyond := quantile(sorted, q)
	if beyond < minTail {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d", q*100, len(sorted), beyond, minTail)
	}
	return v, nil
}

// minSamplesFor is the smallest sample count whose q-quantile has
// minTail samples beyond it.
func minSamplesFor(q float64) int {
	for n := minTail; ; n++ {
		if n-rank(n, q) >= minTail {
			return n
		}
	}
}

// windowed splits samples, in the order they were taken, into as many
// equal windows of at least size samples as fit, and returns the
// median over windows of each window's q-quantile and the window
// count. A stall from outside the system under test — another tenant
// of the machine taking the CPUs for a second — moves the windows it
// falls in, not the median of all of them.
func windowed(samples []float64, size int, q float64) (float64, []float64, error) {
	k := len(samples) / size
	if k == 0 {
		return 0, nil, fmt.Errorf("a window needs %d samples, have %d", size, len(samples))
	}
	per := make([]float64, k)
	for i := range per {
		w := sortedCopy(samples[i*len(samples)/k : (i+1)*len(samples)/k])
		v, err := tailQuantile(w, q)
		if err != nil {
			return 0, nil, err
		}
		per[i] = v
	}
	return median(per), per, nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ms, us and ns convert a duration to float units.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ns(d time.Duration) float64 { return float64(d) }
