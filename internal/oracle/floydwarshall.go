package oracle

import "math"

// AllPairs computes all-pairs shortest path distances with Floyd-Warshall.
// Negative edge weights are allowed; it returns ErrNegativeCycle if the
// graph contains a negative cycle. Unreachable pairs have distance +Inf.
// The input graph is not modified.
func AllPairs(g *Digraph) ([][]float64, error) {
	d := g.Matrix()
	if err := FloydWarshall(d); err != nil {
		return nil, err
	}
	return d, nil
}

// FloydWarshall runs the Floyd-Warshall relaxation in place on a square
// distance matrix d (d[i][j] = direct edge weight, +Inf if absent, 0 on the
// diagonal). On return d holds shortest-path distances. It returns
// ErrNegativeCycle if any diagonal entry becomes negative.
func FloydWarshall(d [][]float64) error {
	n := len(d)
	for k := 0; k < n; k++ {
		dk := d[k]
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			di := d[i]
			for j := 0; j < n; j++ {
				if dkj := dk[j]; !math.IsInf(dkj, 1) {
					if nd := dik + dkj; nd < di[j] {
						di[j] = nd
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if d[i][i] < -negCycleTol(d[i][i]) {
			return ErrNegativeCycle
		}
		// Snap tiny negative diagonal noise to zero so downstream code sees a
		// clean metric.
		if d[i][i] < 0 {
			d[i][i] = 0
		}
	}
	return nil
}

func negCycleTol(x float64) float64 {
	return 1e-9 * (1 + math.Abs(x))
}
