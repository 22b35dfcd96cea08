package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/swaprt"
)

// The default link core.SwapTime predicts swaps on (swaprt's defaults).
const (
	defaultLinkLatency   = 0.0005
	defaultLinkBandwidth = 100e6
)

// stateRounds is how many times the state codec probe encodes and
// decodes the final checkpoint.
const stateRounds = 10

// stateProbe times swaprt's state codec on the registered state of the
// last swap-churn run's leader: SaveCheckpoint (encode) and
// LoadCheckpoint (decode), recording the bytes each encode allocates.
func stateProbe(sess *swaprt.Session, tr *spanRec, out *slice) {
	if sess == nil {
		out.fail("swap-churn: no final leader session for the state codec probe")
		return
	}
	var blob bytes.Buffer
	if err := sess.SaveCheckpoint(&blob); err != nil {
		out.fail("swap-churn: checkpoint: %v", err)
		return
	}
	want := append([]byte(nil), blob.Bytes()...)
	for i := 0; i < stateRounds; i++ {
		blob.Reset() // keeps its capacity, so Write below allocates nothing
		a0 := readMetric(metricAllocs)
		o := tr.start()
		err := sess.SaveCheckpoint(&blob)
		tr.end(o, span{Name: spanEncode, Rank: -1, Iter: i, N: blob.Len()})
		allocated := readMetric(metricAllocs) - a0
		if err != nil || !bytes.Equal(blob.Bytes(), want) {
			out.fail("swap-churn: checkpoint %d differs from the first (err %v)", i, err)
			return
		}
		out.encodeAlloc = append(out.encodeAlloc, float64(allocated)/float64(blob.Len()))
		o = tr.start()
		err = sess.LoadCheckpoint(bytes.NewReader(want))
		tr.end(o, span{Name: spanDecode, Rank: -1, Iter: i, N: len(want)})
		if err != nil {
			out.fail("swap-churn: restore checkpoint: %v", err)
			return
		}
	}
}

// layerMetrics computes every per-layer metric from the traced slices,
// each from the workload that exercises its layer (see README.md).
func layerMetrics(got map[string]slice, recs map[string]*spanRec) map[string]metric {
	churn, exch, sim := recs["swap-churn"].snapshot(), recs["exchange-steady"].snapshot(), recs["sim-figures"].snapshot()
	sc, ex, sm := got["swap-churn"], got["exchange-steady"], got["sim-figures"]
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{finite(v), unit} }

	decide := durations(exch, spanDecide)
	put("swaprt.decide_us_p50", median(decide)*1e3, "us")
	put("swaprt.decide_drift", drift(decide), "ratio")
	put("swaprt.stay_point_us_p50", median(durations(exch, spanSwapPoint, pointStay))*1e3, "us")
	out := durations(churn, spanSwapPoint, pointOut)
	pause := durations(churn, spanSwapPoint, pointOut, pointCommit)
	put("swaprt.swap_out_ms_p50", median(out), "ms")
	put("swaprt.swap_pause_ms_p50", median(pause), "ms")
	put("swaprt.swap_pause_ms_p90", percentile(pause, 90), "ms")
	put("swaprt.swaps", float64(sc.run.Swaps), "count")
	put("swaprt.aborts", float64(sc.run.SwapAborts), "count")
	perSwap := float64(sc.run.StateBytes) / float64(sc.run.Swaps)
	put("swaprt.state_bytes_per_swap", perSwap, "bytes")
	put("core.swaptime_ratio", median(out)/1e3/core.SwapTime(defaultLinkLatency, defaultLinkBandwidth, perSwap), "ratio")

	put("state.encode_ms_per_mib", median(perItem(churn, spanEncode, 1<<20)), "ms")
	put("state.decode_ms_per_mib", median(perItem(churn, spanDecode, 1<<20)), "ms")
	put("state.encode_alloc_ratio", median(sc.encodeAlloc), "ratio")

	put("mpi.send_us_p50", median(durations(exch, spanSend))*1e3, "us")
	put("mpi.drain_us_per_msg", median(perItem(exch, spanDrain, 1))*1e3, "us")
	put("mpi.allreduce_us_p50", median(durations(exch, spanAllReduce))*1e3, "us")
	var bulk []float64
	for _, ms := range perItem(churn, spanBulk, 1e6) {
		bulk = append(bulk, 1e3/ms)
	}
	put("mpi.bulk_mb_per_s", median(bulk), "MB/s")
	iters := float64(len(ex.opMS))
	put("mpi.msgs_per_iter", float64(ex.mpi.MsgsSent)/iters, "count")
	put("mpi.bytes_per_iter", float64(ex.mpi.BytesSent)/iters, "bytes")
	put("mpi.send_block_ms_per_iter", float64(ex.mpi.SendBlock)/1e6/iters, "ms")

	put("apps.step_ms_p50", median(durations(churn, spanStep)), "ms")

	for _, f := range figures {
		put("experiment."+f.id+"_s", median(durations(sim, spanFigure, f.id))/1e3, "s")
	}
	put("experiment.sim_runs_per_s", opsPerS(sm)*float64(sm.simRuns)/float64(len(sm.opMS)), "1/s")
	for _, name := range techniques {
		put("strategy."+name+".run_ms", median(durations(sim, spanTechnique, name)), "ms")
	}
	put("loadgen.onoff.day_us", median(durations(sim, spanLoadgenDay, "onoff"))*1e3, "us")
	put("loadgen.hyperexp.day_us", median(durations(sim, spanLoadgenDay, "hyperexp"))*1e3, "us")
	return m
}

// perItem returns, for each span named name, its duration in ms per
// unit items of what it covered (its N field).
func perItem(spans []span, name string, unit float64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.N > 0 {
			out = append(out, float64(s.dur())/1e6/(float64(s.N)/unit))
		}
	}
	return out
}

// drift is the median of the last tenth of xs over the median of the
// first tenth: above 1 when the operation slows as the run goes on.
func drift(xs []float64) float64 {
	k := len(xs) / 10
	if k == 0 {
		return -1
	}
	return median(xs[len(xs)-k:]) / median(xs[:k])
}

// fingerprint names the host and the run a result came from.
func fingerprint(workload string, seed int64, seconds float64, trace int) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os_arch": runtime.GOOS + "/" + runtime.GOARCH,
		"commit": commit, "source_sha256": sourceDigest("."),
	}
}

// sourceDigest hashes the Go sources and module files under root (hidden
// directories skipped), so that a result names the code it measured
// even where no git commit is at hand.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(p)+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
