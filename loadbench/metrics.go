package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it.
// It returns 0 for no samples and leaves xs unsorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// step is one rung of a rate ladder as measured.
type step struct {
	rate    float64 // scheduled requests per second
	p99     time.Duration
	failed  int
	growing bool // generator lateness grew across the step: a backlog
}

// maxQPS is the highest ladder rate below which every rung, itself
// included, kept its light p99 within limit, failed nothing and built
// no backlog. A rung that passes above a failing one does not count:
// the ladder's knee is its first failure. It is 0 if the first rung
// fails.
func maxQPS(steps []step, limit time.Duration) float64 {
	best := 0.0
	for _, s := range steps {
		if s.p99 > limit || s.failed > 0 || s.growing {
			break
		}
		best = s.rate
	}
	return best
}

// backlogSlack is how much the generator's lateness may rise from the
// first to the last quarter of a step before the step counts as
// building a backlog.
const backlogSlack = time.Millisecond

// lateGrowing reports whether lateness, in schedule order, rose by more
// than backlogSlack between the step's first and last quarters
// (comparing their medians).
func lateGrowing(late []time.Duration) bool {
	q := len(late) / 4
	if q == 0 {
		return false
	}
	med := func(ds []time.Duration) float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d)
		}
		return percentile(xs, 50)
	}
	return med(late[len(late)-q:])-med(late[:q]) > float64(backlogSlack)
}
