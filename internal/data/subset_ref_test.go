package data

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"emp/internal/geom"
)

// subsetRef is the map-based Subset the shard planners used to call once
// per shard: it restricts the dataset to ids (local id i is ids[i]) through
// a map from global to local id, sorting each remapped neighbor list. It is
// the reference Split is checked against.
func subsetRef(d *Dataset, ids []int) (*Dataset, error) {
	remap := make(map[int]int, len(ids))
	for newID, oldID := range ids {
		if oldID < 0 || oldID >= d.N() {
			return nil, fmt.Errorf("data: subset id %d out of range", oldID)
		}
		if _, dup := remap[oldID]; dup {
			return nil, fmt.Errorf("data: subset id %d repeated", oldID)
		}
		remap[oldID] = newID
	}
	adj := make([][]int, len(ids))
	for newID, oldID := range ids {
		for _, oldNb := range d.g.Neighbors(oldID) {
			if newNb, ok := remap[int(oldNb)]; ok {
				adj[newID] = append(adj[newID], newNb)
			}
		}
		sort.Ints(adj[newID])
	}
	out, err := New(d.Name, adj)
	if err != nil {
		return nil, err
	}
	out.Dissimilarity = d.Dissimilarity
	out.DissimilarityAttrs = append([]string(nil), d.DissimilarityAttrs...)
	out.AttrNames = append([]string(nil), d.AttrNames...)
	if d.Polygons != nil {
		out.Polygons = make([]geom.Polygon, len(ids))
		for newID, oldID := range ids {
			out.Polygons[newID] = d.Polygons[oldID]
		}
	}
	out.Cols = make([][]float64, len(d.Cols))
	for c := range d.Cols {
		col := make([]float64, len(ids))
		for newID, oldID := range ids {
			col[newID] = d.Cols[c][oldID]
		}
		out.Cols[c] = col
	}
	return out, nil
}

// splitIndex returns the part and local index of every area under members.
func splitIndex(n int, members [][]int) (part, local []int) {
	part, local = make([]int, n), make([]int, n)
	for c, ids := range members {
		for i, a := range ids {
			part[a], local[a] = c, i
		}
	}
	return part, local
}

// TestSplitMatchesSubset cuts random lattices and an inline dataset whose
// neighbor lists are unsorted into random parts, with local orders that
// ascend (as the shard planners build them) and that do not, and checks
// every part against the map-based Subset of its member list.
func TestSplitMatchesSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		cols, rows := 1+rng.Intn(9), 1+rng.Intn(9)
		polys := geom.Lattice(geom.LatticeOptions{Cols: cols, Rows: rows, Jitter: 0.2, Rng: rng})
		d := FromPolygons(fmt.Sprintf("lattice%d", trial), polys, geom.Queen)
		if trial%2 == 1 {
			// The same contiguity as inline lists in shuffled order, with
			// no polygons.
			adj := lists(d)
			for _, nbs := range adj {
				rng.Shuffle(len(nbs), func(i, j int) { nbs[i], nbs[j] = nbs[j], nbs[i] })
			}
			d = mustNew(t, "inline", adj)
		}
		for _, name := range []string{"A", "B"} {
			col := make([]float64, d.N())
			for i := range col {
				col[i] = float64(rng.Intn(100))
			}
			if err := d.AddColumn(name, col); err != nil {
				t.Fatal(err)
			}
		}
		d.Dissimilarity = "A"
		if trial%3 == 0 {
			d.DissimilarityAttrs = []string{"A", "B"}
		}

		k := 1 + rng.Intn(min(4, d.N()))
		order := rng.Perm(d.N())
		members := make([][]int, k)
		for i, a := range order {
			members[i%k] = append(members[i%k], a)
		}
		if trial%4 < 2 {
			for _, ids := range members {
				slices.Sort(ids)
			}
		}
		part, local := splitIndex(d.N(), members)
		subs := d.Split(part, local, members)
		for c, ids := range members {
			want, err := subsetRef(d, ids)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(subs[c], want) {
				t.Fatalf("trial %d part %d of %d: Split differs from Subset\n got %v\nwant %v",
					trial, c, k, lists(subs[c]), lists(want))
			}
		}
	}
}
