package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/swaprt"
)

// churnCfg sizes swap-churn.
type churnCfg struct {
	nx, rowsPerRank int // each active rank holds rowsPerRank×(nx+2) float64
	iters           int // iterations per application run
	minPhase        int // fewest iterations between two load moves
	maxPhase        int // most iterations between two load moves
	limit           time.Duration
}

// churnFull registers 128×256 float64 = 256 KiB of grid per active rank.
// At 1 MiB per rank the run's working set (the grids, the sweep's fresh
// grid and the state codec's buffers, cycled through a heap of about
// 30 MiB) left the per-core L2 cache, and on a shared 2-vCPU VM its speed
// followed the memory traffic of other tenants: back-to-back runs varied
// by a third, while exchange-steady and sim-figures varied by an eighth.
var churnFull = churnCfg{nx: 254, rowsPerRank: 128, iters: 200, minPhase: 2, maxPhase: 4, limit: 60 * time.Second}

const (
	churnRanks  = 4
	churnActive = 2

	tagBulk    = 300
	tagBulkAck = 301
	bulkBytes  = 1 << 20
	bulkRounds = 8
)

// schedule is the seeded probe schedule: at the start of iteration k
// (1-based) a phase begins that loads the host of the active member at
// comm rank schedule[k]. The greedy policy swaps that process to a spare
// at the iteration's SwapPoint, so every phase commits one swap.
type schedule map[int]int

// newSchedule draws the phase lengths as a seeded shuffle of a fixed
// multiset (minPhase..maxPhase, equally often), so every seed has the
// same number of phases and the same swap count per run. The loaded rank
// alternates between the active ranks from a seeded first one, so every
// seed moves the leader and the other rank equally often: the two kinds
// of swap cost differently, and a seeded mix of them would make the
// figures depend on the seed. The seed picks the order of the lengths.
func newSchedule(seed int64, cfg churnCfg) schedule {
	r := rand.New(rand.NewSource(seed))
	var lengths []int
	kinds := cfg.maxPhase - cfg.minPhase + 1
	for total, i := 0, 0; total+cfg.minPhase+i%kinds <= cfg.iters; i++ {
		lengths = append(lengths, cfg.minPhase+i%kinds)
		total += lengths[i]
	}
	r.Shuffle(len(lengths), func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
	s := schedule{}
	first := r.Intn(churnActive)
	k := 1
	for i, l := range lengths {
		s[k] = (first + i) % churnActive
		k += l
	}
	return s
}

// churnSlice runs swap-churn applications back to back for dur (at least
// minRuns of them) after one unmeasured warm-up run.
func churnSlice(cfg churnCfg, seed int64, dur time.Duration, tr *spanRec) slice {
	const minRuns = 3
	// One window per application run, for ops_per_s and op_ms_tail.
	// Swaps get slower as a run goes on, so shorter windows fall into a
	// fast early group and a slow late group, and their median would flip
	// between the two.
	out := slice{window: cfg.iters}
	g := gridFor(seed, cfg.nx, cfg.rowsPerRank, churnActive)
	sched := newSchedule(seed, cfg)
	ref, err := reference(g, churnActive, cfg.iters)
	if err != nil {
		out.fail("swap-churn: %v", err)
		return out
	}
	once := func(tr *spanRec, measured bool) {
		r := churnRun(cfg, g, sched, tr, len(ref))
		if !r.check(&out, "swap-churn", ref) {
			return
		}
		if got := r.stats.Swaps + r.stats.SwapAborts; got != len(sched) {
			out.fail("swap-churn: %d swaps proposed, the probe schedule loads %d hosts", got, len(sched))
		}
		if measured {
			r.absorb(&out)
			out.setupS = append(out.setupS, r.setup)
		}
	}
	once(nil, false)
	h := watchHeap()
	deadline := time.Now().Add(dur)
	for n := 0; !out.hung && (n < minRuns || time.Now().Before(deadline)); n++ {
		once(tr, true)
	}
	h.finish(&out)
	return out
}

// churnRun is one swap-churn application: Jacobi2D plus a residual
// all-reduce on 2 active ranks of 4, with the greedy policy moving the
// process off whichever host the schedule loads.
func churnRun(cfg churnCfg, g apps.Jacobi2D, sched schedule, tr *spanRec, cells int) runResult {
	var loaded atomic.Int32
	loaded.Store(-1)
	lr := liveRun{
		name: "swap-churn", ranks: churnRanks, active: churnActive,
		policy: core.Greedy(), probe: loadedProbe(&loaded), limit: cfg.limit, tr: tr,
	}
	lr.body = func(s *swaprt.Session, rec *recorder, cur []parentRef) error {
		iter := 0
		st := registerGrid(s, g, churnActive, &iter)
		for !s.Done() && iter < cfg.iters {
			if !s.Active() {
				if err := s.SwapPoint(); err != nil {
					return err
				}
				continue
			}
			t0 := time.Now()
			comm := s.Comm()
			lead := comm.Rank() == 0
			if lead {
				if iter == 0 {
					rec.first(t0)
				}
				// Set before the leader's sweep: the other active rank
				// probes only after receiving this sweep's ghost row, so
				// every probe of the iteration sees the same load.
				if pick, ok := sched[iter+1]; ok {
					loaded.Store(int32(comm.WorldRank(pick)))
				}
			}
			it := tr.start()
			if err := stepAndReduce(g, comm, st, tr, it.id, s.Rank(), iter+1); err != nil {
				return err
			}
			iter++
			cur[s.Rank()] = parentRef{id: it.id, iter: iter}
			if err := swapPoint(s, tr, it.id, iter); err != nil {
				return err
			}
			tr.end(it, span{Name: spanIter, Rank: s.Rank(), Iter: iter})
			if lead {
				rec.op(time.Since(t0))
			}
		}
		if !s.Active() {
			return nil
		}
		rec.gather(g, st)
		if s.Comm().Rank() == 0 {
			rec.setLeader(s)
		}
		if tr == nil {
			return nil
		}
		return bulkProbe(s.Comm(), tr, s.Rank())
	}
	return lr.run(cells)
}

// bulkProbe times bulkRounds transfers of 1 MiB from comm rank 0 to comm
// rank 1, each until rank 1's one-byte acknowledgment arrives.
func bulkProbe(comm *mpi.Comm, tr *spanRec, rank int) error {
	switch comm.Rank() {
	case 0:
		buf := make([]byte, bulkBytes)
		for i := 0; i < bulkRounds; i++ {
			o := tr.start()
			if err := comm.Send(1, tagBulk, buf); err != nil {
				return err
			}
			if _, _, err := comm.Recv(1, tagBulkAck); err != nil {
				return err
			}
			tr.end(o, span{Name: spanBulk, Rank: rank, Iter: i, N: bulkBytes})
		}
	case 1:
		for i := 0; i < bulkRounds; i++ {
			data, _, err := comm.Recv(0, tagBulk)
			if err != nil {
				return err
			}
			if len(data) != bulkBytes {
				return fmt.Errorf("bulk transfer delivered %d bytes, sent %d", len(data), bulkBytes)
			}
			if err := comm.Send(0, tagBulkAck, []byte{1}); err != nil {
				return err
			}
		}
	}
	return nil
}
