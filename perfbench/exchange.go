package main

import (
	"encoding/binary"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/swaprt"
)

// exchCfg sizes exchange-steady.
type exchCfg struct {
	nx, rowsPerRank int // small Jacobi2D block per active rank
	msgs            int // messages to each peer per iteration
	msgBytes        int
	setupRuns       int // short runs made only to sample set-up time
	setupIters      int // iterations in each of them
	sendEvery       int // traced runs time every send of one iteration in sendEvery
	limitSlack      time.Duration
}

var exchFull = exchCfg{nx: 62, rowsPerRank: 32, msgs: 1000, msgBytes: 256,
	setupRuns: 15, setupIters: 1, sendEvery: 64, limitSlack: 60 * time.Second}

const (
	exchRanks  = 4
	exchActive = 3
	exchTags   = 8   // message i to a peer carries tag tagExch + i%exchTags
	tagExch    = 200 // first exchange tag
	tagFence   = 199 // sent to each peer after its messages

	stampLen  = 17 // src, tag, iteration, index (u32 each), then the last-iteration flag
	flagLast  = 1
	noMaxIter = int(^uint(0) >> 1)
)

// stamp writes the identity of one message into its first stampLen bytes.
func stamp(b []byte, src, tag, iter, idx int, last bool) {
	binary.LittleEndian.PutUint32(b[0:], uint32(src))
	binary.LittleEndian.PutUint32(b[4:], uint32(tag))
	binary.LittleEndian.PutUint32(b[8:], uint32(iter))
	binary.LittleEndian.PutUint32(b[12:], uint32(idx))
	b[16] = 0
	if last {
		b[16] = flagLast
	}
}

// stampOK reports whether b carries the expected identity.
func stampOK(b []byte, src, tag, iter, idx int) bool {
	return len(b) >= stampLen &&
		binary.LittleEndian.Uint32(b[0:]) == uint32(src) &&
		binary.LittleEndian.Uint32(b[4:]) == uint32(tag) &&
		binary.LittleEndian.Uint32(b[8:]) == uint32(iter) &&
		binary.LittleEndian.Uint32(b[12:]) == uint32(idx)
}

// exchSlice samples set-up time over short runs, then runs one
// exchange-steady application for dur.
func exchSlice(cfg exchCfg, seed int64, dur time.Duration, tr *spanRec) slice {
	out := slice{window: liveWindow}
	g := gridFor(seed, cfg.nx, cfg.rowsPerRank, exchActive)
	payload := make([]byte, cfg.msgBytes)
	rand.New(rand.NewSource(seed)).Read(payload)
	ref, err := reference(g, exchActive, cfg.setupIters)
	if err != nil {
		out.fail("exchange-steady: %v", err)
		return out
	}
	for i := 0; i < cfg.setupRuns && !out.hung; i++ {
		r := exchRun(cfg, g, payload, cfg.setupIters, time.Time{}, cfg.limitSlack, nil, len(ref))
		if r.check(&out, "exchange-steady", ref) {
			out.setupS = append(out.setupS, r.setup)
		}
	}
	if out.hung {
		return out
	}
	h := watchHeap()
	r := exchRun(cfg, g, payload, noMaxIter, time.Now().Add(dur), dur+cfg.limitSlack, tr, len(ref))
	h.finish(&out)
	if r.hung || r.timedOut || r.err != nil {
		r.check(&out, "exchange-steady", nil)
		return out
	}
	iters := len(r.rec.opMS)
	if ref, err = reference(g, exchActive, iters); err != nil {
		out.fail("exchange-steady: %v", err)
		return out
	}
	if r.check(&out, "exchange-steady", ref) {
		r.absorb(&out)
		out.setupS = append(out.setupS, r.setup)
	}
	return out
}

// exchRun is one exchange-steady application on 3 active ranks of 4
// with flat probes and the friendly policy, so every SwapPoint stays.
// Each iteration is a small Jacobi2D sweep, an all-to-all of cfg.msgs
// stamped messages to every peer, an all-reduce of the residual and a
// SwapPoint. The leader ends the run at maxIters or after stopAt, and
// tells the others through the last-iteration flag of its fences.
func exchRun(cfg exchCfg, g apps.Jacobi2D, payload []byte, maxIters int, stopAt time.Time,
	limit time.Duration, tr *spanRec, cells int) runResult {
	lr := liveRun{
		name: "exchange-steady", ranks: exchRanks, active: exchActive,
		policy: core.Friendly(), probe: flatProbe, limit: limit, tr: tr,
	}
	lr.body = func(s *swaprt.Session, rec *recorder, cur []parentRef) error {
		iter := 0
		st := registerGrid(s, g, exchActive, &iter)
		msg := append([]byte(nil), payload...)
		for !s.Done() {
			if !s.Active() {
				if err := s.SwapPoint(); err != nil {
					return err
				}
				continue
			}
			t0 := time.Now()
			comm := s.Comm()
			me, n := comm.Rank(), comm.Size()
			next := iter + 1
			last := false
			if me == 0 {
				if iter == 0 {
					rec.first(t0)
				}
				last = next >= maxIters || (!stopAt.IsZero() && t0.After(stopAt))
			}
			it := tr.start()
			o := tr.start()
			res, err := g.Step(comm, st)
			tr.end(o, span{Parent: it.id, Name: spanStep, Rank: s.Rank(), Iter: next})
			if err != nil {
				return err
			}
			timeSends := tr != nil && next%cfg.sendEvery == 1
			for p := 0; p < n; p++ {
				if p == me {
					continue
				}
				for i := 0; i < cfg.msgs; i++ {
					tag := tagExch + i%exchTags
					stamp(msg, me, tag, next, i, false)
					var so open
					if timeSends {
						so = tr.start()
					}
					if err := comm.Send(p, tag, msg); err != nil {
						return err
					}
					if timeSends {
						tr.end(so, span{Parent: it.id, Name: spanSend, Rank: s.Rank(), Iter: next, N: len(msg)})
					}
				}
				stamp(msg, me, tagFence, next, cfg.msgs, last)
				if err := comm.Send(p, tagFence, msg[:stampLen]); err != nil {
					return err
				}
			}
			for p := 0; p < n; p++ {
				if p == me {
					continue
				}
				o := tr.start()
				fence, _, err := comm.Recv(p, tagFence)
				tr.end(o, span{Parent: it.id, Name: spanFenceWait, Rank: s.Rank(), Iter: next})
				if err != nil {
					return err
				}
				if !stampOK(fence, p, tagFence, next, cfg.msgs) {
					rec.mismatch("rank %d iteration %d: fence from %d has a wrong stamp", me, next, p)
				} else if p == 0 {
					last = fence[16] == flagLast
				}
				// The fence arrived after every message p sent this
				// iteration, so the backlog is fully queued. Receive it
				// tag by tag: within a tag, messages must match in the
				// order they were sent.
				o = tr.start()
				for t := 0; t < exchTags; t++ {
					for i := t; i < cfg.msgs; i += exchTags {
						data, _, err := comm.Recv(p, tagExch+t)
						if err != nil {
							return err
						}
						if len(data) != len(msg) || !stampOK(data, p, tagExch+t, next, i) {
							rec.mismatch("rank %d iteration %d: message %d from %d on tag %d matched out of order",
								me, next, i, p, tagExch+t)
						}
					}
				}
				tr.end(o, span{Parent: it.id, Name: spanDrain, Rank: s.Rank(), Iter: next, N: cfg.msgs})
			}
			o = tr.start()
			_, err = comm.AllReduceFloat64(mpi.OpSum, res)
			tr.end(o, span{Parent: it.id, Name: spanAllReduce, Rank: s.Rank(), Iter: next})
			if err != nil {
				return err
			}
			iter = next
			cur[s.Rank()] = parentRef{id: it.id, iter: iter}
			if err := swapPoint(s, tr, it.id, iter); err != nil {
				return err
			}
			tr.end(it, span{Name: spanIter, Rank: s.Rank(), Iter: iter})
			if me == 0 {
				rec.op(time.Since(t0))
			}
			if last {
				break
			}
		}
		if s.Active() {
			rec.gather(g, st)
			if s.Comm().Rank() == 0 {
				rec.setLeader(s)
			}
		}
		return nil
	}
	return lr.run(cells)
}
