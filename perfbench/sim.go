package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/loadgen"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/simkern"
	"repro/internal/strategy"
)

// simCfg sizes sim-figures.
type simCfg struct {
	opts         experiment.Options // BaseSeed is replaced by the run's seed
	setupSamples int
	probeRuns    int // samples per strategy and loadgen probe
	figLimit     time.Duration
}

var simFull = simCfg{opts: experiment.Defaults(), setupSamples: 21, probeRuns: 9, figLimit: 60 * time.Second}

// figures are the paper's Figures 4–9, regenerated in this order.
var figures = []struct {
	id  string
	gen func(experiment.Options) *experiment.FigureResult
}{
	{"fig4", experiment.Fig4}, {"fig5", experiment.Fig5}, {"fig6", experiment.Fig6},
	{"fig7", experiment.Fig7}, {"fig8", experiment.Fig8}, {"fig9", experiment.Fig9},
}

// techniques are the strategies timed one run each by the layer probe.
var techniques = []string{"none", "swap", "dlb", "cr"}

// simPlatform builds what every simulated run of Figure 4 sets up before
// its first iteration: a kernel and 32 hosts with their load sources.
func simPlatform(seed int64) *platform.Platform {
	return platform.New(simkern.New(), platform.Default(32, loadgen.NewOnOff(0.2)), rng.NewSource(seed))
}

// simSlice regenerates Figures 4–9 from the seed over and over for dur
// (at least once); one pass over the six figures is one op. Every pass
// must give the same digest.
func simSlice(cfg simCfg, seed int64, dur time.Duration, tr *spanRec) slice {
	out := slice{window: 1}
	opts := cfg.opts
	opts.BaseSeed = seed
	for i := 0; i < cfg.setupSamples; i++ {
		t0 := time.Now()
		simPlatform(seed + int64(i))
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}
	h := watchHeap()
	deadline := time.Now().Add(dur)
	for rep := 0; !out.hung && (rep == 0 || time.Now().Before(deadline)); rep++ {
		d := sha256.New()
		runtime.GC() // no pass pays for the garbage of the one before
		pass := time.Now()
		for _, f := range figures {
			o := tr.start()
			got := make(chan *experiment.FigureResult, 1)
			timedOut, _, _ := bounded(cfg.figLimit, 0, func() {}, func() error {
				got <- f.gen(opts)
				return nil
			})
			if timedOut {
				// A sweep cannot be cancelled: stop measuring.
				out.hung = true
				out.fail("sim-figures: %s took longer than %s", f.id, cfg.figLimit)
				break
			}
			fig := <-got
			runs := checkFigure(&out, fig, opts.Seeds)
			tr.end(o, span{Name: spanFigure, Tag: f.id, Rank: -1, Iter: rep, N: runs})
			hashFigure(d, fig)
			out.simRuns += runs
		}
		if out.hung {
			break
		}
		out.opMS = append(out.opMS, float64(time.Since(pass))/1e6)
		digest := hex.EncodeToString(d.Sum(nil))
		if out.digest == "" {
			out.digest = digest
		} else if digest != out.digest {
			out.fail("sim-figures: regeneration %d has digest %s, the first had %s", rep, digest, out.digest)
		}
	}
	h.finish(&out)
	return out
}

// checkFigure requires every cell to be finite and averaged over seeds
// runs, and returns the number of simulated runs behind the figure.
func checkFigure(out *slice, fig *experiment.FigureResult, seeds int) int {
	runs := 0
	for _, s := range fig.Series {
		cells := fig.Cells[s]
		if len(cells) != len(fig.X) {
			out.fail("sim-figures: %s series %s has %d cells for %d x values", fig.ID, s, len(cells), len(fig.X))
		}
		for i, c := range cells {
			runs += c.N
			for _, v := range []float64{c.Mean, c.CI95, c.Min, c.Max} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					out.fail("sim-figures: %s %s cell %d is not finite: %+v", fig.ID, s, i, c)
					break
				}
			}
			if c.N != seeds {
				out.fail("sim-figures: %s %s cell %d averages %d runs, want %d", fig.ID, s, i, c.N, seeds)
			}
		}
	}
	return runs
}

// hashFigure feeds every number of the figure into d in a fixed order.
func hashFigure(d hash.Hash, fig *experiment.FigureResult) {
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.Write(b[:])
	}
	d.Write([]byte(fig.ID))
	for _, x := range fig.X {
		put(x)
	}
	for _, s := range fig.Series {
		d.Write([]byte(s))
		for _, c := range fig.Cells[s] {
			put(c.Mean)
			put(c.CI95)
			put(c.Min)
			put(c.Max)
			put(float64(c.N))
		}
	}
}

// simProbes times the sim stack's lower layers directly: one
// Technique.Run per strategy on the Figure 4 set-up, and one simulated
// day of load trace per load model.
func simProbes(cfg simCfg, seed int64, tr *spanRec, out *slice) {
	sc := strategy.Scenario{
		Active: 4,
		App: app.Iterative{Iterations: cfg.opts.Iterations, WorkPerProcIter: 120 * app.RefSpeed,
			BytesPerIter: 1e6, StateBytes: 1e6},
		Policy: core.Greedy(),
	}
	for _, name := range techniques {
		tech, err := strategy.ByName(name)
		if err != nil {
			out.fail("sim-figures: %v", err)
			continue
		}
		for i := 0; i < cfg.probeRuns; i++ {
			p := simPlatform(seed + int64(i))
			o := tr.start()
			res := tech.Run(p, sc)
			tr.end(o, span{Name: spanTechnique, Tag: name, Rank: -1, Iter: i})
			if t := res.TotalTime; !(t > 0) || math.IsInf(t, 0) {
				out.fail("sim-figures: strategy %s run %d took %v simulated seconds", name, i, t)
			}
		}
	}
	const day = 86400.0
	models := []struct {
		name  string
		model loadgen.Model
	}{{"onoff", loadgen.NewOnOff(0.2)}, {"hyperexp", loadgen.NewHyperExp(300)}}
	for _, m := range models {
		for i := 0; i < cfg.probeRuns; i++ {
			o := tr.start()
			starts, _ := loadgen.NewTrace(m.model.NewSource(rng.NewSource(seed+int64(i)), 0)).Segments(day)
			tr.end(o, span{Name: spanLoadgenDay, Tag: m.name, Rank: -1, Iter: i, N: len(starts)})
			if len(starts) == 0 {
				out.fail("sim-figures: %s load trace of one day is empty", m.name)
			}
		}
	}
}
