// Command perfbench is the repository's benchmark. One invocation runs
// one workload and prints its metrics as the last line of standard
// output; see README.md for the workloads, the metrics and the span dump.
//
//	perfbench --workload swap-churn --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

var workloadNames = []string{"swap-churn", "exchange-steady", "sim-figures"}

// sizes holds every workload's dimensions; tests shrink them.
type sizes struct {
	churn churnCfg
	exch  exchCfg
	sim   simCfg
}

var full = sizes{churn: churnFull, exch: exchFull, sim: simFull}

// runSlice measures one workload for dur; tr nil means tracing off.
func (z sizes) runSlice(workload string, seed int64, dur time.Duration, tr *spanRec) slice {
	switch workload {
	case "swap-churn":
		return churnSlice(z.churn, seed, dur, tr)
	case "exchange-steady":
		return exchSlice(z.exch, seed, dur, tr)
	default:
		return simSlice(z.sim, seed, dur, tr)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hardLimit bounds the whole invocation: past it the benchmark reports
// what it has as failed and exits.
const hardLimit = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload to run: swap-churn, exchange-steady or sim-figures")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	if !contains(workloadNames, *workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload swap-churn|exchange-steady|sim-figures --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	fp := fingerprint(*workload, *seed, *seconds, *trace)
	printJSON(map[string]any{"fingerprint": fp})

	var once sync.Once
	emit := func(r result) { once.Do(func() { printJSON(r) }) }
	watchdog := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: still running after %s; giving up\n", hardLimit)
		emit(result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		os.Exit(0)
	})
	dur := time.Duration(*seconds * float64(time.Second))
	var r result
	if *trace == 0 {
		s := full.runSlice(*workload, *seed, dur, nil)
		r = resultOf(endToEnd(s), s)
		printJSON(map[string]any{"summary": summary(*workload, s)})
	} else {
		r = full.traced(*workload, *seed, dur, fp)
	}
	watchdog.Stop()
	emit(r)
}

func resultOf(m map[string]metric, slices ...slice) result {
	r := result{Metrics: m}
	for _, s := range slices {
		r.Attempted += len(s.opMS) + s.failed
		r.Failed += s.failed
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.Attempted = max(r.Attempted, 1)
	return r
}

// endToEnd computes the user-facing metrics of an untraced slice.
func endToEnd(s slice) map[string]metric {
	ops := float64(max(len(s.opMS), 1))
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{finite(v), unit} }
	put("setup_s", median(s.setupS), "s")
	put("ops_per_s", opsPerS(s), "1/s")
	put("op_ms_p50", median(s.opMS), "ms")
	put("op_ms_tail", opTail(s), "ms")
	put("alloc_kb_per_op", float64(s.allocBytes)/1024/ops, "KiB")
	put("peak_heap_mb", float64(s.peakHeap)/(1<<20), "MiB")
	return m
}

// summary describes a slice in words the metrics leave out: what an op
// is, which percentile the tail is, and how many samples stand behind
// each figure.
func summary(workload string, s slice) map[string]any {
	op := "iteration of the active leader"
	if workload == "sim-figures" {
		op = "regeneration of Figures 4-9"
	}
	sm := map[string]any{
		"op":              op,
		"ops":             len(s.opMS),
		"tail_percentile": tailPercentile(tailSamples(s)),
		"tail_samples":    tailSamples(s),
		"tail_windows":    len(s.opMS) / s.window,
		"setup_samples":   len(s.setupS),
		"failed_frac":     float64(s.failed) / float64(max(len(s.opMS)+s.failed, 1)),
	}
	switch workload {
	case "swap-churn":
		sm["swaps"] = s.run.Swaps
		sm["swap_aborts"] = s.run.SwapAborts
	case "sim-figures":
		sm["sim_runs"] = s.simRuns
		sm["sim_runs_per_s"] = float64(s.simRuns) / (sum(s.opMS) / 1e3)
		sm["digest"] = s.digest
	}
	return sm
}

// traced makes the per-layer run: each of the three workloads traced for
// a third of dur, so that every layer's metrics come from the workload
// that exercises it. The named workload also runs untraced for a sixth
// of dur just before and just after its traced slice; its traced op
// rate against those gives the tracing overhead. The spans go to a
// JSON-lines file under the build directory.
func (z sizes) traced(workload string, seed int64, dur time.Duration, fp map[string]any) result {
	part := dur / 3
	recs := map[string]*spanRec{}
	got := map[string]slice{}
	var all []slice
	var base []float64 // op times of the untraced slices
	for _, name := range workloadNames {
		untraced := func() {
			if name == workload {
				s := z.runSlice(name, seed, part/2, nil)
				base = append(base, s.opMS...)
				all = append(all, s)
			}
		}
		untraced()
		recs[name] = newSpanRec(spanLimit)
		s := z.runSlice(name, seed, part, recs[name])
		untraced()
		if name == "swap-churn" {
			stateProbe(s.final, recs[name], &s)
		}
		if name == "sim-figures" {
			simProbes(z.sim, seed, recs[name], &s)
		}
		got[name] = s
		all = append(all, s)
	}
	m := layerMetrics(got, recs)
	untraced := slice{window: got[workload].window, opMS: base}
	m["trace.overhead_frac"] = metric{finite(opsPerS(untraced)/opsPerS(got[workload]) - 1), "ratio"}
	path := filepath.Join(buildDir(), "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := dumpSpans(path, map[string]any{"fingerprint": fp}, recs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: span dump: %v\n", err)
	} else {
		printJSON(map[string]any{"spans": path})
	}
	return resultOf(m, all...)
}

// spanLimit caps the spans one workload keeps in memory.
const spanLimit = 400_000

// opsPerS is the median, over consecutive windows of s.window ops, of
// ops completed per second of op time; a burst of load on the host moves
// one window, not the figure.
func opsPerS(s slice) float64 {
	var rates []float64
	for i := 0; i+s.window <= len(s.opMS); i += s.window {
		rates = append(rates, float64(s.window)/(sum(s.opMS[i:i+s.window])/1e3))
	}
	if len(rates) == 0 {
		return float64(len(s.opMS)) / (sum(s.opMS) / 1e3)
	}
	return median(rates)
}

// opTail is op_ms_tail: within each window of s.window ops, the highest
// percentile with minBeyond samples beyond it, then the median over the
// windows, so a burst of load on the host that spans a few windows does
// not set it. With one-op windows (sim-figures) it is the median op.
func opTail(s slice) float64 {
	var tails []float64
	for i := 0; i+s.window <= len(s.opMS); i += s.window {
		w := s.opMS[i : i+s.window]
		tails = append(tails, percentile(w, tailPercentile(len(w))))
	}
	if len(tails) == 0 {
		return percentile(s.opMS, tailPercentile(len(s.opMS)))
	}
	return median(tails)
}

// tailSamples is the sample count behind each op_ms_tail percentile.
func tailSamples(s slice) int { return min(s.window, len(s.opMS)) }

// buildDir is where the build, the Go cache and the span dumps live.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

// finite replaces a value that could not be measured (NaN or Inf, from an
// empty sample) by -1, which JSON can carry and no measurement produces.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

func init() {
	// All ranks run as goroutines of this process; never schedule them
	// on more threads than the machine has CPUs.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
}
