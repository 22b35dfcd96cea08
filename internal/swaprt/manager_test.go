package swaprt

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/predict"
)

// unprunedDecider is LocalDecider's decision path over a history that is
// never pruned: the reference the bounded history must agree with.
type unprunedDecider struct {
	policy core.Policy
	hist   map[int]*predict.History
}

func (d *unprunedDecider) record(rank int, now, rate float64) float64 {
	h := d.hist[rank]
	if h == nil {
		h = &predict.History{}
		d.hist[rank] = h
	}
	if s, ok := h.Latest(); ok && now < s.T {
		now = s.T
	}
	h.Add(now, rate)
	if w := d.policy.HistoryWindow; w > 0 {
		if m := h.WindowMean(now, w); m > 0 {
			return m
		}
	}
	return rate
}

func (d *unprunedDecider) decide(req DecideRequest) DecideResponse {
	in := req.Input()
	for i := range in.Active {
		in.Active[i].Rate = d.record(in.Active[i].ID, req.Now, in.Active[i].Rate)
	}
	for i := range in.Spare {
		in.Spare[i].Rate = d.record(in.Spare[i].ID, req.Now, in.Spare[i].Rate)
	}
	pairs, eval := d.policy.DecideExplained(in)
	resp := DecideResponse{Eval: &eval}
	for _, p := range pairs {
		resp.Swaps = append(resp.Swaps, SwapDirective{Out: p.Out.ID, In: p.In.ID})
	}
	return resp
}

// TestLocalDeciderHistoryBounded drives 10⁴ seeded decides, interleaved
// with handler reports (some stamped in the past, which the decider
// clamps), through LocalDecider and through an unpruned reference. Every
// decision and explanation must match, and each rank's history must
// stay within the policy window — a single sample without one.
func TestLocalDeciderHistoryBounded(t *testing.T) {
	const decides = 10000
	for _, pol := range []core.Policy{core.Greedy(), core.Safe(), core.Friendly()} {
		t.Run(pol.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			d := NewLocalDecider(pol)
			ref := &unprunedDecider{policy: pol, hist: map[int]*predict.History{}}
			rate := func() float64 { return 50 + 100*rng.Float64() }
			now := 0.0
			for i := 0; i < decides; i++ {
				now += 2 * rng.Float64()
				if rng.Intn(3) == 0 {
					rep := ReportMsg{Rank: rng.Intn(4), Now: now - rng.Float64(), Rate: rate()}
					if err := d.Report(rep); err != nil {
						t.Fatal(err)
					}
					ref.record(rep.Rank, rep.Now, rep.Rate)
				}
				req := DecideRequest{
					Now:         now,
					ActiveSet:   []int{0, 1},
					ActiveRates: []float64{rate(), rate()},
					SpareSet:    []int{2, 3},
					SpareRates:  []float64{rate(), rate()},
					IterTime:    1 + rng.Float64(),
					SwapTime:    rng.Float64(),
				}
				got, err := d.Decide(req)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.decide(req); !reflect.DeepEqual(got, want) {
					t.Fatalf("decide %d diverged from the unpruned history:\n got %+v %+v\nwant %+v %+v",
						i, got.Swaps, got.Eval, want.Swaps, want.Eval)
				}
			}
			for rank, h := range d.hist {
				bound := 1
				if w := pol.HistoryWindow; w > 0 {
					bound = len(ref.hist[rank].Window(now, w))
				}
				if h.Len() != bound || h.Len() > decides/10 {
					t.Errorf("rank %d keeps %d samples, want %d (unpruned: %d)",
						rank, h.Len(), bound, ref.hist[rank].Len())
				}
			}
		})
	}
}
