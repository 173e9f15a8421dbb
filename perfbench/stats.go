package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// samples is a set of raw measurements (one per UPDATE, batch or call).
// Every percentile the benchmark reports is read from raw samples, never
// from telemetry histograms, whose power-of-two buckets can be off by a
// whole bucket.
type samples []float64

// quantile returns the nearest-rank q-quantile (0 < q <= 1). It reports
// false when fewer than minBeyond samples lie above the chosen rank, the
// rule for a percentile to be reportable.
func (s samples) quantile(q float64) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], len(sorted)-1-rank >= minBeyond
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

func (s samples) median() float64 {
	v, _ := s.quantile(0.5)
	return v
}

func (s samples) max() float64 {
	m := 0.0
	for _, v := range s {
		m = math.Max(m, v)
	}
	return m
}

// min is 0 for no samples.
func (s samples) min() float64 {
	if len(s) == 0 {
		return 0
	}
	m := math.Inf(1)
	for _, v := range s {
		m = math.Min(m, v)
	}
	return m
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one reported figure: value, unit and the number of samples
// it was computed from (1 for a single measurement or a ratio of
// counters).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	// Thin marks a percentile with fewer than minBeyond samples beyond it.
	Thin bool
}

// report collects metrics in print order.
type report struct {
	ms []metric
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.ms = append(r.ms, metric{Name: name, Value: v, Unit: unit, N: n})
}

// addQuantile adds the q-quantile of s, flagging it when the sample is
// too small for that percentile.
func (r *report) addQuantile(name string, s samples, q float64, unit string) {
	v, ok := s.quantile(q)
	r.ms = append(r.ms, metric{Name: name, Value: v, Unit: unit, N: len(s), Thin: !ok})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r *report) print(w io.Writer) {
	for _, m := range r.ms {
		thin := ""
		if m.Thin {
			thin = " (fewer than 10 samples beyond this percentile)"
		}
		fmt.Fprintf(w, "metric %-32s %14.4f %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, thin)
	}
}
