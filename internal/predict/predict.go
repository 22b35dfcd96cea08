// Package predict supplies the performance-history component of the
// swapping runtime: timestamped measurement buffers with time-window
// queries (the paper's "amount of performance history" policy parameter)
// and rate estimators that turn host load information into the per-host
// performance predictions the policies consume.
package predict

import (
	"fmt"
	"math"

	"repro/internal/nws"
	"repro/internal/platform"
)

// Sample is one timestamped measurement.
type Sample struct {
	T float64 // seconds
	V float64
}

// History is a growing buffer of timestamped measurements with
// time-window queries. Measurements must be added in nondecreasing time
// order (they come from a single monitor).
type History struct {
	samples []Sample
}

// Add appends a measurement at time t. Out-of-order times panic.
func (h *History) Add(t, v float64) {
	if n := len(h.samples); n > 0 && t < h.samples[n-1].T {
		panic(fmt.Sprintf("predict: out-of-order sample at %g after %g", t, h.samples[n-1].T))
	}
	h.samples = append(h.samples, Sample{T: t, V: v})
}

// Len reports the number of stored samples.
func (h *History) Len() int { return len(h.samples) }

// Latest returns the most recent sample, or ok=false with none.
func (h *History) Latest() (s Sample, ok bool) {
	if len(h.samples) == 0 {
		return Sample{}, false
	}
	return h.samples[len(h.samples)-1], true
}

// Window returns the samples with T in [now-window, now]. A zero window
// returns just the latest sample (if any).
func (h *History) Window(now, window float64) []Sample {
	if window <= 0 {
		if s, ok := h.Latest(); ok && s.T <= now {
			return []Sample{s}
		}
		return nil
	}
	lo := now - window
	// Samples are time-sorted; find the first in range.
	i := 0
	for i < len(h.samples) && h.samples[i].T < lo {
		i++
	}
	j := len(h.samples)
	for j > i && h.samples[j-1].T > now {
		j--
	}
	return h.samples[i:j]
}

// WindowMean reports the mean of samples in [now-window, now], or NaN
// with none.
func (h *History) WindowMean(now, window float64) float64 {
	ss := h.Window(now, window)
	if len(ss) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, s := range ss {
		sum += s.V
	}
	return sum / float64(len(ss))
}

// PruneBefore discards samples older than t, bounding memory for
// long-running monitors.
func (h *History) PruneBefore(t float64) {
	i := 0
	for i < len(h.samples) && h.samples[i].T < t {
		i++
	}
	if i > 0 {
		h.samples = append(h.samples[:0], h.samples[i:]...)
	}
}

// KeepLatest discards every sample but the newest, for consumers that
// only ever read Latest.
func (h *History) KeepLatest() {
	if n := len(h.samples); n > 1 {
		h.samples = append(h.samples[:0], h.samples[n-1])
	}
}

// ---------------------------------------------------------------------------
// Rate estimators for the simulator.

// RateEstimator predicts a host's effective rate (flop/s) over the near
// future, using up to `window` seconds of performance history ending at
// `now`. A zero window means "no history": use the instantaneous
// measurement, as the paper's greedy policy does.
type RateEstimator interface {
	Rate(h *platform.Host, now, window float64) float64
}

// ExactEstimator computes the true time-averaged availability from the
// host's load trace — an idealized monitor with continuous sampling. This
// is the estimator the simulation studies use by default: it isolates the
// policy comparison from sensor noise, matching the paper's methodology.
type ExactEstimator struct{}

// Rate implements RateEstimator.
func (ExactEstimator) Rate(h *platform.Host, now, window float64) float64 {
	if window <= 0 {
		return h.RateAt(now)
	}
	start := now - window
	if start < 0 {
		start = 0
	}
	return h.MeanRate(start, now)
}

// SampledEstimator models a realistic periodic monitor: availability is
// sampled every Interval seconds and a forecaster summarizes the samples
// in the history window. NewForecaster supplies a fresh forecaster per
// query (forecasters are stateful and single-series).
type SampledEstimator struct {
	Interval      float64
	NewForecaster func() nws.Forecaster
}

// Rate implements RateEstimator.
func (e SampledEstimator) Rate(h *platform.Host, now, window float64) float64 {
	if e.Interval <= 0 {
		panic("predict: SampledEstimator.Interval must be positive")
	}
	if window <= 0 {
		return h.RateAt(now)
	}
	start := now - window
	if start < 0 {
		start = 0
	}
	f := e.NewForecaster()
	// Feed samples oldest-to-newest, aligned so the last sample is `now`.
	n := int((now - start) / e.Interval)
	for i := n; i >= 0; i-- {
		t := now - float64(i)*e.Interval
		if t < start {
			continue
		}
		f.Add(h.AvailAt(t))
	}
	p := f.Predict()
	if math.IsNaN(p) {
		return h.RateAt(now)
	}
	return h.Speed * p
}
