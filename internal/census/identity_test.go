package census

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"emp/internal/geom"
)

// TestGeneratedDatasetsByteIdentical pins generated datasets byte for byte:
// the sha256 of WriteJSON (adjacency, attributes and polygons) for three
// named presets at seed 1, and of the rook and queen neighbor lists that
// geom.Adjacency derives from two presets' polygons at seed 3. Any change to
// the lattice layout, the attribute draws or contiguity extraction that
// alters a single byte fails it; a performance change to any of them must
// keep every hash.
func TestGeneratedDatasetsByteIdentical(t *testing.T) {
	datasets := []struct {
		name  string
		large bool
		want  string
	}{
		{"2k", false, "b59585f336814308fec2cb5e98da14ff4367e318695f63db13ddec8321a21e61"},
		{"20k", false, "120094d4e4a0c293c9cf12a4804741850e716d8e44e5029c3539535abef0bce7"},
		{"50k1", true, "1c26cecf723a0d2a3faf83ee40e505aa65d5d1ecbe7a5ebcdf205ef3a7d94cf5"},
	}
	for _, tc := range datasets {
		t.Run(tc.name, func(t *testing.T) {
			if tc.large && testing.Short() {
				t.Skip("50k1 generation skipped in -short mode")
			}
			d, err := NamedSeeded(tc.name, 1)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := d.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("sha256(WriteJSON(%s, seed 1)) = %s, want %s", tc.name, got, tc.want)
			}
		})
	}

	lists := []struct {
		name        string
		rook, queen string
	}{
		{"2k",
			"53d172ce2c39b50d3864533b51e17504e81c70d189be611ecd6ffc6084ef1952",
			"12604fcdd221c7d9f53b3f3cb560952204f9157eb66946f91c99e7e1eb5e2b3a"},
		{"20k",
			"67e33a33a32f63efa20cac48f3d273883244b7144ad2187194845ab14cbf33e2",
			"bb2d984d00a38232ff16a157575a9b6f542563cdd2e082b45d87519df63e3763"},
	}
	for _, tc := range lists {
		t.Run(tc.name+"/lists", func(t *testing.T) {
			d, err := NamedSeeded(tc.name, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, rc := range []struct {
				rule geom.Contiguity
				want string
			}{{geom.Rook, tc.rook}, {geom.Queen, tc.queen}} {
				if got := hashLists(geom.Adjacency(d.Polygons, rc.rule)); got != rc.want {
					t.Errorf("sha256(%v lists of %s, seed 3) = %s, want %s", rc.rule, tc.name, got, rc.want)
				}
			}
		})
	}
}

// hashLists hashes neighbor lists one line per area, so both the order of
// the areas and the order within each list count.
func hashLists(adj [][]int) string {
	h := sha256.New()
	for _, nbs := range adj {
		fmt.Fprintln(h, nbs)
	}
	return hex.EncodeToString(h.Sum(nil))
}
