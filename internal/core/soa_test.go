package core

import (
	"math"
	"strings"
	"testing"
)

// TestNewStateSlabRejectsBadLoss pins the slab's loss-probability check.
// Like rf.NewLink, NewStateSlab refuses a probability outside [0,1] or NaN.
// Such a value used to be accepted: above 1 it lost every first copy, and
// a negative or NaN value silently modelled a lossless link.
func TestNewStateSlabRejectsBadLoss(t *testing.T) {
	for _, p := range []float64{-0.1, 1.5, 2, math.NaN(), math.Inf(1)} {
		_, err := NewStateSlab(SlabConfig{Devices: 4, Seed: 1, LossProb: p})
		if err == nil || !strings.Contains(err.Error(), "loss probability must be in [0,1]") {
			t.Fatalf("LossProb %v: err = %v, want a range rejection", p, err)
		}
	}
	for _, p := range []float64{0, 0.01, 1} {
		if _, err := NewStateSlab(SlabConfig{Devices: 4, Seed: 1, LossProb: p}); err != nil {
			t.Fatalf("LossProb %v rejected: %v", p, err)
		}
	}
}
