package graph

// SCCCSR computes the strongly connected components of the CSR digraph g
// with the same iterative Tarjan machinery as SCCDense, scanning adjacency
// lists instead of matrix rows. It fills s.CompOf (ids in Tarjan
// completion order, like SCCDense) and returns the number of components,
// allocating nothing once the scratch has warmed up.
//
// The closure of a graph has the same strongly connected components as
// the graph itself (mutual reachability is closure-invariant), so the
// sync components can be found on the raw m~ls adjacency before any
// closure exists.
func SCCCSR(g *CSR, s *SCCScratch) int {
	g.Build()
	n := g.n
	s.reset(n)
	counter := 0
	comps := 0

	for root := 0; root < n; root++ {
		if s.index[root] != -1 {
			continue
		}
		s.callV = append(s.callV, root)
		s.callE = append(s.callE, g.rowPtr[root])
		s.index[root] = counter
		s.low[root] = counter
		counter++
		s.stack = append(s.stack, root)
		s.onStack[root] = true

		for len(s.callV) > 0 {
			top := len(s.callV) - 1
			v := s.callV[top]
			advanced := false
			for s.callE[top] < g.rowPtr[v+1] {
				j := g.colIdx[s.callE[top]]
				s.callE[top]++
				if s.index[j] == -1 {
					s.index[j] = counter
					s.low[j] = counter
					counter++
					s.stack = append(s.stack, j)
					s.onStack[j] = true
					s.callV = append(s.callV, j)
					s.callE = append(s.callE, g.rowPtr[j])
					advanced = true
					break
				}
				if s.onStack[j] && s.index[j] < s.low[v] {
					s.low[v] = s.index[j]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			s.callV = s.callV[:top]
			s.callE = s.callE[:top]
			if top > 0 {
				parent := s.callV[top-1]
				if s.low[v] < s.low[parent] {
					s.low[parent] = s.low[v]
				}
			}
			if s.low[v] == s.index[v] {
				for {
					u := s.stack[len(s.stack)-1]
					s.stack = s.stack[:len(s.stack)-1]
					s.onStack[u] = false
					s.CompOf[u] = comps
					if u == v {
						break
					}
				}
				comps++
			}
		}
	}
	return comps
}
