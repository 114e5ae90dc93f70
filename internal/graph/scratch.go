package graph

import "math"

// Scratch holds reusable per-vertex buffers for repeated subset-connectivity
// and articulation queries, avoiding the per-call map allocations of
// ConnectedSubset/ConnectedSubsetExcluding on hot paths. Membership and
// visitation are recorded as generation stamps, so resetting between queries
// is O(1). A Scratch is not safe for concurrent use; each goroutine (or each
// region.Partition) owns its own.
type Scratch struct {
	g *Graph
	// inStamp marks subset membership for the current query.
	inStamp []int
	// visStamp marks visited vertices for the current BFS traversal.
	visStamp []int
	// stamp is the current generation; bumped once per query.
	stamp int
	// queue is the BFS worklist.
	queue []int
	// nodes holds the per-vertex articulation DFS state, packed into 16
	// bytes so one vertex — including its subset-membership stamp — costs a
	// single cache line's worth of state instead of four parallel array
	// reads. Valid for members reset at the start of each pass.
	nodes []artNode
	// artStamp is the articulation pass generation recorded in artNode
	// stamps; wrapped (with a full reset) before int32 overflow.
	artStamp int32
	// artFlag[v] records the articulation verdict of the current pass; only
	// entries of current members are meaningful.
	artFlag []bool
	// stack is the reusable DFS frame stack of articulation runs.
	stack []artFrame
	// artBuf is the reusable result buffer of SubsetArticulation.
	artBuf []bool
	// extU/extV collect the boundary incidences (member, outside neighbor)
	// of SubsetArticulationBoundary.
	extU, extV []int32
}

// artNode is one vertex's articulation DFS state: Tarjan discovery and
// lowlink times, DFS tree parent, and the membership stamp of the pass that
// last touched it.
type artNode struct {
	disc, low, parent int32
	stamp             int32
}

// artFrame is one DFS stack entry of an articulation pass.
type artFrame struct{ u, idx int }

// NewScratch allocates scratch buffers sized for the graph.
func (g *Graph) NewScratch() *Scratch {
	n := g.N()
	return &Scratch{
		g:        g,
		inStamp:  make([]int, n),
		visStamp: make([]int, n),
		nodes:    make([]artNode, n),
		artFlag:  make([]bool, n),
	}
}

// begin starts a new query generation and marks the members, returning the
// number of distinct marked vertices.
func (s *Scratch) begin(members []int, exclude int) int {
	s.stamp++
	marked := 0
	for _, v := range members {
		if v == exclude {
			continue
		}
		if s.inStamp[v] != s.stamp {
			s.inStamp[v] = s.stamp
			marked++
		}
	}
	return marked
}

// ConnectedSubsetExcludingScratch is ConnectedSubsetExcluding using reusable
// buffers: it reports whether the subset stays connected after removing one
// member.
func (g *Graph) ConnectedSubsetExcludingScratch(s *Scratch, members []int, removed int) bool {
	want := s.begin(members, removed)
	if want <= 1 {
		return true
	}
	start := -1
	for _, v := range members {
		if v != removed {
			start = v
			break
		}
	}
	return s.bfsCount(start) == want
}

// bfsCount traverses from start within the currently marked subset and
// returns the number of vertices reached.
func (s *Scratch) bfsCount(start int) int {
	s.visStamp[start] = s.stamp
	s.queue = append(s.queue[:0], start)
	reached := 1
	g := s.g
	for len(s.queue) > 0 {
		u := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		for _, v := range g.arena[g.off[u]:g.off[u+1]] {
			if s.inStamp[v] == s.stamp && s.visStamp[v] != s.stamp {
				s.visStamp[v] = s.stamp
				reached++
				s.queue = append(s.queue, int(v))
			}
		}
	}
	return reached
}

// SubsetArticulation reports, for each member, whether it is an articulation
// point of the subgraph induced by the member subset — i.e. whether removing
// it disconnects the remaining members. The result is parallel to members.
// One call costs O(|members| + induced edges), so callers can amortize a
// whole region's removability checks into a single traversal per region
// mutation instead of one BFS per member.
//
// The returned slice is a reusable Scratch buffer: it stays valid only until
// the next query on this Scratch, and callers must copy what they keep. The
// call itself performs no heap allocations in steady state.
//
// Members need not induce a connected subgraph; articulation is computed per
// induced component (removing a member of one component never disconnects
// another).
func (g *Graph) SubsetArticulation(s *Scratch, members []int) []bool {
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
	art = g.subsetArticulation(s, members, true)
	return art, s.extU, s.extV
}

// subsetArticulation runs the iterative Tarjan articulation pass over the
// induced subgraph, optionally collecting boundary incidences.
func (g *Graph) subsetArticulation(s *Scratch, members []int, boundary bool) []bool {
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
		s.artFlag[v] = false
	}
	if cap(s.artBuf) < len(members) {
		s.artBuf = make([]bool, len(members))
	}
	art := s.artBuf[:len(members)]
	s.extU, s.extV = s.extU[:0], s.extV[:0]
	if len(members) <= 2 {
		// K1/K2: removal leaves <= 1 vertex, always connected.
		for i := range art {
			art[i] = false
		}
		if boundary {
			for _, u := range members {
				for _, v := range g.arena[g.off[u]:g.off[u+1]] {
					if nodes[v].stamp != gen {
						s.extU = append(s.extU, int32(u))
						s.extV = append(s.extV, v)
					}
				}
			}
		}
		return art
	}
	var timer int32
	for _, root := range members {
		if nodes[root].disc != -1 {
			continue
		}
		nodes[root].disc, nodes[root].low = timer, timer
		timer++
		nodes[root].parent = -1
		rootChildren := 0
		s.stack = append(s.stack[:0], artFrame{root, 0})
		for len(s.stack) > 0 {
			top := len(s.stack) - 1
			f := &s.stack[top]
			u := f.u
			nbs := g.arena[g.off[u]:g.off[u+1]]
			idx := f.idx
			nu := &nodes[u]
			// Keep the frame's mutable state (scan index, running lowlink)
			// in locals across the neighbor scan; flush only on push/pop.
			low := nu.low
			parent := int(nu.parent)
			pushed := false
			for idx < len(nbs) {
				v := int(nbs[idx])
				idx++
				nv := &nodes[v]
				if nv.stamp != gen {
					if boundary {
						s.extU = append(s.extU, int32(u))
						s.extV = append(s.extV, int32(v))
					}
					continue // outside the subset
				}
				if nv.disc == -1 {
					nv.parent = int32(u)
					nv.disc, nv.low = timer, timer
					timer++
					if u == root {
						rootChildren++
					}
					f.idx = idx
					nu.low = low
					s.stack = append(s.stack, artFrame{v, 0})
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
			if parent != -1 {
				np := &nodes[parent]
				if low < np.low {
					np.low = low
				}
				if parent != root && low >= np.disc {
					s.artFlag[parent] = true
				}
			}
		}
		if rootChildren > 1 {
			s.artFlag[root] = true
		}
	}
	for i, v := range members {
		art[i] = s.artFlag[v]
	}
	return art
}
