package predict

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/loadgen"
	"repro/internal/nws"
	"repro/internal/platform"
)

func TestHistoryWindow(t *testing.T) {
	var h History
	for i := 0; i <= 10; i++ {
		h.Add(float64(i), float64(i)*10)
	}
	w := h.Window(10, 3)
	if len(w) != 4 { // samples at t=7,8,9,10
		t.Fatalf("window has %d samples: %v", len(w), w)
	}
	if w[0].T != 7 || w[3].T != 10 {
		t.Fatalf("window bounds wrong: %v", w)
	}
}

func TestHistoryWindowMean(t *testing.T) {
	var h History
	h.Add(0, 2)
	h.Add(5, 4)
	h.Add(10, 6)
	if got := h.WindowMean(10, 6); got != 5 {
		t.Fatalf("WindowMean = %g, want 5", got)
	}
	if got := h.WindowMean(10, 100); got != 4 {
		t.Fatalf("WindowMean(all) = %g, want 4", got)
	}
	if !math.IsNaN(h.WindowMean(10, 0.5)) && h.WindowMean(10, 0.5) != 6 {
		t.Fatalf("tiny window should contain only t=10")
	}
}

func TestHistoryZeroWindowIsLatest(t *testing.T) {
	var h History
	h.Add(1, 100)
	h.Add(2, 200)
	w := h.Window(5, 0)
	if len(w) != 1 || w[0].V != 200 {
		t.Fatalf("zero window = %v", w)
	}
}

func TestHistoryEmpty(t *testing.T) {
	var h History
	if _, ok := h.Latest(); ok {
		t.Fatal("Latest on empty history")
	}
	if !math.IsNaN(h.WindowMean(10, 5)) {
		t.Fatal("WindowMean on empty history should be NaN")
	}
}

func TestHistoryOutOfOrderPanics(t *testing.T) {
	var h History
	h.Add(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	h.Add(4, 1)
}

func TestHistoryPrune(t *testing.T) {
	var h History
	for i := 0; i < 10; i++ {
		h.Add(float64(i), 1)
	}
	h.PruneBefore(5)
	if h.Len() != 5 {
		t.Fatalf("Len after prune = %d", h.Len())
	}
	if s, _ := h.Latest(); s.T != 9 {
		t.Fatalf("latest after prune = %v", s)
	}
	h.KeepLatest()
	if s, _ := h.Latest(); h.Len() != 1 || s.T != 9 {
		t.Fatalf("KeepLatest left %d samples, latest %v", h.Len(), s)
	}
}

func TestHistoryWindowExcludesFuture(t *testing.T) {
	var h History
	h.Add(1, 10)
	h.Add(2, 20)
	h.Add(3, 30)
	w := h.Window(2, 5)
	for _, s := range w {
		if s.T > 2 {
			t.Fatalf("window included future sample %v", s)
		}
	}
}

func mkHost(speed float64, segs []loadgen.Segment, tail int) *platform.Host {
	m := loadgen.Replay{Segments: segs, Tail: tail}
	return platform.NewHost(0, speed, loadgen.NewTrace(m.NewSource(nil, 0)))
}

func TestExactEstimatorInstantaneous(t *testing.T) {
	// Loaded for the first 100 s, idle after.
	h := mkHost(100e6, []loadgen.Segment{{Dur: 100, N: 1}}, 0)
	var e ExactEstimator
	if got := e.Rate(h, 50, 0); got != 50e6 {
		t.Fatalf("instantaneous rate during load = %g", got)
	}
	if got := e.Rate(h, 150, 0); got != 100e6 {
		t.Fatalf("instantaneous rate after load = %g", got)
	}
}

func TestExactEstimatorWindowAverages(t *testing.T) {
	h := mkHost(100e6, []loadgen.Segment{{Dur: 100, N: 1}}, 0)
	var e ExactEstimator
	// Window [100, 200] split: but load ended at 100, so [100,200] idle.
	if got := e.Rate(h, 200, 100); math.Abs(got-100e6) > 1 {
		t.Fatalf("windowed rate = %g", got)
	}
	// Window [50, 150]: half loaded (50 MF/s) half idle (100) → 75.
	if got := e.Rate(h, 150, 100); math.Abs(got-75e6) > 1 {
		t.Fatalf("windowed rate = %g, want 75e6", got)
	}
}

func TestExactEstimatorClampsWindowAtZero(t *testing.T) {
	h := mkHost(100e6, nil, 0)
	var e ExactEstimator
	if got := e.Rate(h, 10, 1000); math.Abs(got-100e6) > 1 {
		t.Fatalf("rate with window before t=0 = %g", got)
	}
}

func TestSampledEstimatorMatchesExactOnConstantLoad(t *testing.T) {
	h := mkHost(200e6, nil, 1) // constant 1 competitor → 100 MF/s
	se := SampledEstimator{Interval: 5, NewForecaster: func() nws.Forecaster { return &nws.RunningMean{} }}
	if got := se.Rate(h, 300, 60); math.Abs(got-100e6) > 1 {
		t.Fatalf("sampled rate = %g, want 100e6", got)
	}
}

func TestSampledEstimatorSeesRecentChange(t *testing.T) {
	// Host loaded until t=100, idle after. A last-value forecaster at
	// t=110 should report full speed; a long mean should report less.
	h := mkHost(100e6, []loadgen.Segment{{Dur: 100, N: 1}}, 0)
	last := SampledEstimator{Interval: 5, NewForecaster: func() nws.Forecaster { return &nws.LastValue{} }}
	mean := SampledEstimator{Interval: 5, NewForecaster: func() nws.Forecaster { return &nws.RunningMean{} }}
	rl := last.Rate(h, 110, 60)
	rm := mean.Rate(h, 110, 60)
	if rl != 100e6 {
		t.Fatalf("last-value rate = %g, want 100e6", rl)
	}
	if rm >= rl {
		t.Fatalf("mean rate %g should be below last-value rate %g", rm, rl)
	}
}

func TestEstimatorRatesBounded(t *testing.T) {
	// Property: any estimate lies in (0, Speed].
	h := mkHost(500e6, []loadgen.Segment{{Dur: 60, N: 2}, {Dur: 60, N: 0}, {Dur: 30, N: 5}}, 1)
	var exact ExactEstimator
	sampled := SampledEstimator{Interval: 3, NewForecaster: func() nws.Forecaster { return nws.NewAdaptive() }}
	f := func(nowRaw, winRaw uint16) bool {
		now := float64(nowRaw%1000) + 1
		win := float64(winRaw % 500)
		for _, e := range []RateEstimator{exact, sampled} {
			r := e.Rate(h, now, win)
			if r <= 0 || r > 500e6+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
