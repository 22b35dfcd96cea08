package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/experiment"
)

// tiny shrinks every workload so a whole traced run takes a few seconds.
var tiny = sizes{
	churn: churnCfg{nx: 14, rowsPerRank: 8, iters: 30, minPhase: 2, maxPhase: 4, limit: 30 * time.Second},
	exch: exchCfg{nx: 6, rowsPerRank: 4, msgs: 24, msgBytes: 64,
		setupRuns: 2, setupIters: 2, sendEvery: 2, limitSlack: 30 * time.Second},
	sim: simCfg{opts: experiment.Options{Seeds: 2, Iterations: 5, Quick: true},
		setupSamples: 3, probeRuns: 2, figLimit: 30 * time.Second},
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); c.n >= 20 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median(xs); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestOpTailPerWindow(t *testing.T) {
	// Five windows of 200 ops: 1..200 ms each, except that the third
	// window's ops all take 1000 ms longer, as under a burst of load.
	var ops []float64
	for w := 0; w < 5; w++ {
		for i := 1; i <= 200; i++ {
			v := float64(i)
			if w == 2 {
				v += 1000
			}
			ops = append(ops, v)
		}
	}
	s := slice{window: 1000, opMS: ops}
	if got := opTail(s); got != 1190 { // one window: p99, rank 989 of 1000
		t.Errorf("one-window tail = %v, want 1190", got)
	}
	s.window = 200
	if got := opTail(s); got != 190 { // p95 of each window, then the median
		t.Errorf("per-window tail = %v, want 190", got)
	}
	if got := tailSamples(s); got != 200 {
		t.Errorf("tail samples = %d, want 200", got)
	}
	s.window = 1
	if got := opTail(s); got != median(ops) { // one-op windows: the median op
		t.Errorf("one-op-window tail = %v, want the median %v", got, median(ops))
	}
}

func TestProbeScheduleDeterminism(t *testing.T) {
	cfg := tiny.churn
	swaps := func(seed int64) int {
		g := gridFor(seed, cfg.nx, cfg.rowsPerRank, churnActive)
		sched := newSchedule(seed, cfg)
		ref, err := reference(g, churnActive, cfg.iters)
		if err != nil {
			t.Fatal(err)
		}
		r := churnRun(cfg, g, sched, nil, len(ref))
		var out slice
		if !r.check(&out, "swap-churn", ref) || out.failed > 0 {
			t.Fatalf("seed %d: run failed %d checks", seed, out.failed)
		}
		if r.stats.Swaps != len(sched) {
			t.Fatalf("seed %d: %d swaps committed, the schedule loads %d hosts", seed, r.stats.Swaps, len(sched))
		}
		return r.stats.Swaps
	}
	for _, seed := range []int64{3, 4} {
		if a, b := swaps(seed), swaps(seed); a != b || a == 0 {
			t.Errorf("seed %d: swap counts %d and %d", seed, a, b)
		}
	}
	a, b := newSchedule(3, cfg), newSchedule(4, cfg)
	if len(a) == len(b) && sameSchedule(a, b) {
		t.Error("seeds 3 and 4 gave the same probe schedule")
	}
}

func sameSchedule(a, b schedule) bool {
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func TestWorkloadSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			s := tiny.runSlice(name, 7, 300*time.Millisecond, nil)
			if s.failed > 0 || len(s.opMS) == 0 || len(s.setupS) == 0 {
				t.Fatalf("failed %d, ops %d, set-up samples %d", s.failed, len(s.opMS), len(s.setupS))
			}
			for k, m := range endToEnd(s) {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", k, m.Value)
				}
			}
		})
	}
}

func TestSimDigestRepeats(t *testing.T) {
	a := tiny.runSlice("sim-figures", 5, time.Millisecond, nil)
	b := tiny.runSlice("sim-figures", 5, time.Millisecond, nil)
	if a.digest == "" || a.digest != b.digest {
		t.Fatalf("digests %q and %q for the same seed", a.digest, b.digest)
	}
	if c := tiny.runSlice("sim-figures", 6, time.Millisecond, nil); c.digest == a.digest {
		t.Fatal("seeds 5 and 6 gave the same figures")
	}
}

// TestMetricsMatchBenchmarkJSON runs a tiny traced run and requires the
// metrics it prints to be exactly those BENCHMARK.json declares, with the
// same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !equalSorted(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	r := tiny.traced("exchange-steady", 9, 900*time.Millisecond, map[string]any{"test": true})
	if !r.Correct || r.Failed > 0 {
		t.Errorf("traced run: correct %v, %d of %d failed", r.Correct, r.Failed, r.Attempted)
	}
	compare := func(kind string, want []struct{ Name, Unit string }, got map[string]metric) {
		for _, m := range want {
			g, ok := got[m.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is declared but not reported", kind, m.Name)
			case g.Unit != m.Unit:
				t.Errorf("%s metric %s: unit %q, declared %q", kind, m.Name, g.Unit, m.Unit)
			case g.Value == -1:
				t.Errorf("%s metric %s was not measured", kind, m.Name)
			}
			delete(got, m.Name)
		}
		for name := range got {
			t.Errorf("%s metric %s is reported but not declared", kind, name)
		}
	}
	compare("per-layer", spec.PerLayer, r.Metrics)
	compare("end-to-end", spec.EndToEnd, endToEnd(tiny.runSlice("swap-churn", 9, time.Millisecond, nil)))
}

func equalSorted(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
