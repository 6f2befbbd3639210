package main

import (
	"math"
	"testing"
)

func TestCalibrate(t *testing.T) {
	if s := calibrate(2); !(s > 0) || math.IsInf(s, 0) {
		t.Fatalf("calibrate() = %v iterations per CPU second, want a positive finite speed", s)
	}
	// At half the reference speed a CPU second is half a reference second.
	if got := refSeconds(2, refItersPerS/2); got != 1 {
		t.Errorf("refSeconds(2, ref/2) = %v, want 1", got)
	}
}
