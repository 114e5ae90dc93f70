package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckScaleFlag: -scale outside (0, 1] is refused with an error naming
// the flag (main exits 2 on it), and the two ends of the valid range pass.
func TestCheckScaleFlag(t *testing.T) {
	for _, scale := range []float64{5, 0, -1, math.NaN()} {
		err := checkScaleFlag(scale)
		if err == nil {
			t.Errorf("scale %v accepted", scale)
			continue
		}
		if !strings.Contains(err.Error(), "-scale") {
			t.Errorf("scale %v: error %q does not name -scale", scale, err)
		}
	}
	for _, scale := range []float64{0.25, 1} {
		if err := checkScaleFlag(scale); err != nil {
			t.Errorf("scale %v refused: %v", scale, err)
		}
	}
}
