package graph

import "math"

// Scratch holds reusable per-vertex buffers for repeated articulation
// queries over vertex subsets, avoiding the per-call map allocations of
// ConnectedSubset/ConnectedSubsetExcluding on hot paths. Membership and
// visitation are recorded as generation stamps, so resetting between queries
// is O(1). A Scratch is not safe for concurrent use; each goroutine (or each
// region.Partition) owns its own.
type Scratch struct {
	// nodes holds the per-vertex articulation DFS state, packed into 16
	// bytes so one vertex — including its subset-membership stamp and its
	// verdict — costs a single cache line's worth of state instead of
	// several parallel array reads. Valid for members reset at the start of
	// each pass.
	nodes []artNode
	// artStamp is the articulation pass generation recorded in artNode
	// stamps; wrapped (with a full reset) before int32 overflow.
	artStamp int32
	// stack is the reusable DFS frame stack of articulation runs.
	stack []artFrame
	// artBuf is the reusable result buffer of SubsetArticulation.
	artBuf []bool
	// extU/extV collect the boundary incidences (member, outside neighbor)
	// of SubsetArticulationBoundary.
	extU, extV []int32
}

// artNode is one vertex's articulation DFS state: Tarjan discovery and
// lowlink times, the membership stamp of the pass that last touched it, and
// the pass's verdict. A vertex's DFS tree parent is the frame below its own
// on the stack, so it is not stored.
type artNode struct {
	disc, low int32
	stamp     int32
	art       bool
}

// artFrame is one DFS stack entry of an articulation pass: the vertex and
// the unscanned rest [idx, end) of its neighbor range in the arena, so
// resuming a frame reads no offsets.
type artFrame struct{ u, idx, end int32 }

// NewScratch allocates scratch buffers sized for the graph.
func (g *Graph) NewScratch() *Scratch {
	return &Scratch{nodes: make([]artNode, g.N())}
}

// SubsetArticulation reports, for each member, whether it is an articulation
// point of the subgraph induced by the member subset — i.e. whether removing
// it disconnects the remaining members — and whether the members induce a
// connected subgraph at all. art is parallel to members. One call costs
// O(|members| + induced edges), so callers can amortize a whole region's
// removability checks into a single traversal per region mutation instead
// of one traversal per member.
//
// The returned slice is a reusable Scratch buffer: it stays valid only until
// the next query on this Scratch, and callers must copy what they keep. The
// call itself performs no heap allocations in steady state.
//
// Members must contain no duplicates, but need not induce a connected
// subgraph; articulation is computed per induced component (removing a
// member of one component never disconnects another). The empty subset is
// connected.
func (g *Graph) SubsetArticulation(s *Scratch, members []int) (art []bool, connected bool) {
	return g.subsetArticulation(s, members, false)
}

// SubsetArticulationBoundary is SubsetArticulation extended to also report
// the subset's boundary in the same traversal: extU/extV list every
// incidence from a member (extU) to a vertex outside the subset (extV), in
// traversal order, with one entry per adjacency. Callers that need both the
// removability verdicts and the boundary of a region save a second full
// member sweep. All returned slices are reusable Scratch buffers, valid only
// until the next query.
func (g *Graph) SubsetArticulationBoundary(s *Scratch, members []int) (art []bool, extU, extV []int32) {
	art, _ = g.subsetArticulation(s, members, true)
	return art, s.extU, s.extV
}

// subsetArticulation runs the iterative Tarjan articulation pass over the
// induced subgraph, optionally collecting boundary incidences, and counts
// the DFS roots: the subset is connected when there is at most one.
func (g *Graph) subsetArticulation(s *Scratch, members []int, boundary bool) (art []bool, connected bool) {
	s.artStamp++
	if s.artStamp == math.MaxInt32 {
		for i := range s.nodes {
			s.nodes[i].stamp = 0
		}
		s.artStamp = 1
	}
	gen := s.artStamp
	nodes := s.nodes
	for _, v := range members {
		nodes[v] = artNode{disc: -1, stamp: gen}
	}
	if cap(s.artBuf) < len(members) {
		s.artBuf = make([]bool, len(members))
	}
	art = s.artBuf[:len(members)]
	s.extU, s.extV = s.extU[:0], s.extV[:0]
	off, arena := g.off, g.arena
	if len(members) <= 2 {
		// K1/K2: removal leaves <= 1 vertex, always connected. Two members
		// are connected when one is the other's neighbor.
		clear(art)
		connected = len(members) < 2
		if boundary || !connected {
			for _, u := range members {
				for _, v := range arena[off[u]:off[u+1]] {
					switch {
					case nodes[v].stamp == gen:
						connected = true
					case boundary:
						s.extU = append(s.extU, int32(u))
						s.extV = append(s.extV, v)
					}
				}
			}
		}
		return art, connected
	}
	// The members' total degree bounds the boundary incidences, so the
	// traversal writes them by index into buffers of that length.
	var extU, extV []int32
	if boundary {
		deg := 0
		for _, v := range members {
			deg += int(off[v+1] - off[v])
		}
		if cap(s.extU) < deg {
			s.extU = make([]int32, deg)
			s.extV = make([]int32, deg)
		}
		extU, extV = s.extU[:deg], s.extV[:deg]
	}
	ne, roots := 0, 0
	var timer int32
	for _, root := range members {
		if nodes[root].disc != -1 {
			continue
		}
		roots++
		nodes[root].disc, nodes[root].low = timer, timer
		timer++
		rootChildren := 0
		s.stack = append(s.stack[:0], artFrame{int32(root), off[root], off[root+1]})
		for len(s.stack) > 0 {
			// The frame below is u's DFS tree parent; the root (depth 0) has
			// none.
			top := len(s.stack) - 1
			f := &s.stack[top]
			u := f.u
			parent := int32(-1)
			if top > 0 {
				parent = s.stack[top-1].u
			}
			nu := &nodes[u]
			// Keep the frame's mutable state (scan index, running lowlink)
			// in locals across the neighbor scan; flush only on push/pop.
			idx, end := f.idx, f.end
			low := nu.low
			pushed := false
			for idx < end {
				v := arena[idx]
				idx++
				nv := &nodes[v]
				if nv.stamp != gen {
					if boundary {
						extU[ne] = u
						extV[ne] = v
						ne++
					}
					continue // outside the subset
				}
				if nv.disc == -1 {
					nv.disc, nv.low = timer, timer
					timer++
					if top == 0 {
						rootChildren++
					}
					f.idx = idx
					nu.low = low
					s.stack = append(s.stack, artFrame{v, off[v], off[v+1]})
					pushed = true
					break
				}
				if v != parent && nv.disc < low {
					low = nv.disc
				}
			}
			if pushed {
				continue
			}
			nu.low = low
			s.stack = s.stack[:top]
			if top > 0 {
				np := &nodes[parent]
				if low < np.low {
					np.low = low
				}
				// A non-root parent separates u's subtree when nothing in it
				// reaches above the parent.
				if top > 1 && low >= np.disc {
					np.art = true
				}
			}
		}
		if rootChildren > 1 {
			nodes[root].art = true
		}
	}
	s.extU, s.extV = extU[:ne], extV[:ne]
	for i, v := range members {
		art[i] = nodes[v].art
	}
	return art, roots == 1
}
