package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one timing's observations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile returns the q-quantile by linear interpolation between the two
// closest ranks (0 when empty).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

// median of a float slice (0 when empty).
func median(v []float64) float64 { return samples(v).quantile(0.5) }

// quietLow and quietHigh are the figure a timing reports over the windows
// (or chunks) of a run: the quartile on the better side, the lower
// quartile of a latency and the upper quartile of a rate. The host lends
// the run a share of a few CPUs and takes some back in bursts of seconds;
// a burst moves the windows it covers towards the worse side, so the
// better quartile tracks the program while up to three quarters of the
// windows are disturbed, where a median breaks at half. Every window runs
// the same mix of work, so a cost of the program shows in all of them.
func quietLow(v []float64) float64  { return samples(v).quantile(0.25) }
func quietHigh(v []float64) float64 { return samples(v).quantile(0.75) }

// minP99Samples is the fewest samples a p99 is reported from: ten samples
// beyond the percentile.
const minP99Samples = 1000

// metric is one printed number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics plus the sample count behind each
// timing, and free-form details for the human-readable header.
type report struct {
	metrics map[string]metric
	counts  map[string]int
	details map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, counts: map[string]int{}, details: map[string]any{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// setN records a metric together with the sample count it rests on.
func (r *report) setN(name string, v float64, unit string, n int) {
	r.set(name, v, unit)
	r.counts[name] = n
}

// latency records p50 and p99 of one timing whose samples are in time
// order, under prefix_p50_ms and prefix_p99_ms. Each is the quietLow of
// the quantile over consecutive chunks of the run — ten for the p50, up to
// ten of at least minP99Samples for the p99 — so a stretch of interference
// from outside moves some chunks, not the figure. The p99 is left out
// below minP99Samples.
func (r *report) latency(prefix string, s samples) {
	r.setN(prefix+"_p50_ms", chunked(s, windows, 0.5), "ms", len(s))
	if len(s) >= minP99Samples {
		r.setN(prefix+"_p99_ms", chunked(s, min(windows, len(s)/minP99Samples), 0.99), "ms", len(s))
	}
}

// chunked is the quietLow over k consecutive chunks of s of each chunk's
// q-quantile.
func chunked(s samples, k int, q float64) float64 {
	k = max(1, min(k, len(s)))
	var qs []float64
	for i := 0; i < k; i++ {
		qs = append(qs, s[i*len(s)/k:(i+1)*len(s)/k].quantile(q))
	}
	return quietLow(qs)
}

// nsPer converts a duration over n operations to nanoseconds per operation.
func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
