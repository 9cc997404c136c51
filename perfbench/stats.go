package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/trace"
)

// percentile returns the q-th quantile (0 < q ≤ 1) of xs by nearest rank:
// the smallest sample with at least q·n samples at or below it. It returns
// 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond returns how many samples lie strictly above the q-th percentile,
// the count the percentile rests on.
func beyond(xs []float64, q float64) int {
	p := percentile(xs, q)
	n := 0
	for _, x := range xs {
		if x > p {
			n++
		}
	}
	return n
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
// It needs at least two samples.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	if len(s) == 0 {
		return out
	}
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(medianFloat(xs))
}

// ratio is num/base, and 0 when the base is 0: a ratio over no attempts
// reports no useful outcomes rather than dividing by zero.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// PassTime is the time and run count of one pipeline pass within a solve.
type PassTime struct {
	MS   float64
	Runs int
}

// selfTimes folds one solve's trace into per-pass self times, keyed
// "core.<pass>" for the HQS main pipeline and "qbf.<pass>" for the QBF back
// end. The back end runs inside the main pipeline's qbf pass and emits its
// events first, so the qbf pass's self time is its wall time minus the
// qbf-stage events since the previous main-pipeline event. The self times
// of a solve therefore add up to the wall time of its main-pipeline passes.
func selfTimes(events []trace.Event) map[string]PassTime {
	out := map[string]PassTime{}
	var nested time.Duration
	add := func(key string, d time.Duration) {
		pt := out[key]
		pt.MS += ms(d)
		pt.Runs++
		out[key] = pt
	}
	for _, ev := range events {
		switch ev.Stage {
		case "qbf":
			add("qbf."+ev.Pass, ev.Wall)
			nested += ev.Wall
		case "hqs":
			self := ev.Wall
			if ev.Pass == "qbf" {
				self -= nested
			}
			nested = 0
			add("core."+ev.Pass, self)
		}
	}
	return out
}

// stageWall sums the wall time of one stage's events.
func stageWall(events []trace.Event, stage string) time.Duration {
	var d time.Duration
	for _, ev := range events {
		if ev.Stage == stage {
			d += ev.Wall
		}
	}
	return d
}
