package census

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"emp/internal/geom"
)

// FuzzLatticeContiguity: the rook contiguity layoutStates reads off its
// block lattices equals geom.Adjacency(polys, geom.Rook) on the polygons it
// lays out, list for list, for any area, state and component count, jitter
// and seed. The inputs are folded into up to 3,000 areas, 40 states, at
// most one component per state and a jitter in [0, 0.45).
func FuzzLatticeContiguity(f *testing.F) {
	f.Add(uint16(2344), uint8(1), uint8(1), 0.25, int64(1))  // 2k
	f.Add(uint16(2999), uint8(29), uint8(0), 0.25, int64(1)) // 50k1's shape, one component
	f.Add(uint16(1000), uint8(9), uint8(4), 0.25, int64(3))  // five components over ten states
	f.Add(uint16(449), uint8(2), uint8(1), 0.45, int64(7))   // trimmed blocks, two components
	f.Add(uint16(39), uint8(39), uint8(39), 0.0, int64(2))   // one area per state and component
	f.Add(uint16(0), uint8(0), uint8(0), 0.1, int64(0))      // one area
	f.Add(uint16(56), uint8(6), uint8(0), 0.3, int64(5))     // single-column blocks
	f.Fuzz(func(t *testing.T, areas uint16, states, comps uint8, jitter float64, seed int64) {
		n := 1 + int(areas)%3000
		s := min(1+int(states)%40, n)
		c := 1 + int(comps)%s
		j := math.Mod(math.Abs(jitter), 0.45)
		if math.IsNaN(j) { // jitter was NaN or infinite
			j = 0.25
		}
		polys, got := layoutStates(n, s, c, j, rand.New(rand.NewSource(seed)))
		want := geom.Adjacency(polys, geom.Rook)
		if len(got) != len(want) {
			t.Fatalf("%d areas, %d states, %d components: %d lists, want %d", n, s, c, len(got), len(want))
		}
		for a := range want {
			if !slices.Equal(got[a], want[a]) {
				t.Fatalf("%d areas, %d states, %d components, jitter %g: area %d has neighbours %v, want %v",
					n, s, c, j, a, got[a], want[a])
			}
		}
	})
}

// TestGenerateIndependentOfGOMAXPROCS: the attribute transform runs on
// several goroutines, and 20k's WriteJSON bytes are the same at GOMAXPROCS
// 1, 2 and 4.
func TestGenerateIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []byte
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		d, err := NamedSeeded("20k", 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Errorf("GOMAXPROCS %d: WriteJSON differs from GOMAXPROCS 1", procs)
		}
	}
}
