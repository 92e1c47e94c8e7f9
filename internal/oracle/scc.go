package oracle

// SCC computes the strongly connected components of g using Tarjan's
// algorithm (iterative, so deep graphs do not overflow the stack).
// Components are returned in reverse topological order (a component appears
// before any component it can reach... specifically Tarjan emits them in
// reverse topological order of the condensation).
func SCC(g *Digraph) [][]int {
	n := g.N()
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		comps   [][]int
		stack   []int // Tarjan stack
		counter int
	)

	type frame struct {
		v    int
		edge int // next outgoing edge index to explore
	}

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		call := []frame{{v: root}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			out := g.Out(v)
			advanced := false
			for f.edge < len(out) {
				w := out[f.edge].To
				f.edge++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}
