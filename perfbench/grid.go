package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/swaprt"
)

// gridFor derives the Jacobi2D problem from the seed: the boundary values
// change, the shape does not.
func gridFor(seed int64, nx, rowsPerRank, ranks int) apps.Jacobi2D {
	r := rand.New(rand.NewSource(seed))
	return apps.Jacobi2D{Nx: nx, Ny: rowsPerRank * ranks, Top: 1 + 99*r.Float64(), Bottom: -99 * r.Float64()}
}

// registerGrid registers one rank's Jacobi2D block as swappable state.
// Spares start with an empty block that a swap-in fills.
func registerGrid(s *swaprt.Session, g apps.Jacobi2D, active int, iter *int) *apps.Jacobi2DState {
	st := &apps.Jacobi2DState{}
	if s.Rank() < active {
		st = g.Init(active, s.Rank())
	}
	s.Register("iter", iter)
	s.Register("grid", &st.Grid)
	s.Register("lo", &st.LoRow)
	s.Register("rows", &st.Rows)
	return st
}

// gather copies a block's interior rows into the global row-major grid.
func gather(g apps.Jacobi2D, st *apps.Jacobi2DState, global []float64) {
	w := g.Nx + 2
	copy(global[(st.LoRow-1)*w:(st.LoRow-1+st.Rows)*w], st.Grid[w:(st.Rows+1)*w])
}

// reference computes the swap-free answer: iters Jacobi2D sweeps on a
// plain in-process mpi world of active ranks.
func reference(g apps.Jacobi2D, active, iters int) ([]float64, error) {
	global := make([]float64, g.Ny*(g.Nx+2))
	blocks := make([]*apps.Jacobi2DState, active)
	err := mpi.NewWorld(active).Run(func(r *mpi.Rank) error {
		st := g.Init(active, r.Rank())
		comm := r.World()
		for i := 0; i < iters; i++ {
			if _, err := g.Step(comm, st); err != nil {
				return err
			}
		}
		blocks[r.Rank()] = st
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	for _, st := range blocks {
		gather(g, st, global)
	}
	return global, nil
}

// sameGrid reports whether got equals want bit for bit, or describes the
// first difference.
func sameGrid(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("grid has %d cells, reference %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("cell %d is %v, reference %v", i, got[i], want[i])
		}
	}
	return nil
}
