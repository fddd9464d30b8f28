package mat

import (
	"fmt"
	"math"
)

// NNLSWorkspace holds every scratch vector the workspace-taking NNLS
// solvers need. A zero value is ready to use; the first solve sizes it and
// subsequent solves of the same (or smaller) dimension perform no heap
// allocations. A workspace must not be shared between goroutines.
type NNLSWorkspace struct {
	passive []bool
	idx     []int
	z       []float64 // passive-set solution of the equality-constrained solve
	y       []float64 // forward-substitution intermediate
	chol    []float64 // dense lower-triangular Cholesky factor, m×m row-major
	gram    []float64 // k×k Gram buffer (NNLSInto only)
	proj    []float64 // k projection buffer (NNLSInto only)

	// Solves and Iters are cumulative work meters, maintained by every
	// solve through this workspace: Solves counts NNLSGramInto calls and
	// Iters the active-set (outer) iterations they burned; the k=1
	// closed-form path counts as a solve with zero iterations. They are
	// plain (non-atomic) fields — a workspace is single-goroutine by
	// contract — and exist so the observability layer (internal/obs via
	// fit.Searcher) can report NNLS effort without touching the solver's
	// hot loop. Callers that want per-call deltas read before and after.
	Solves uint64
	Iters  uint64
}

// ensure grows the workspace to dimension k.
func (ws *NNLSWorkspace) ensure(k int) {
	if cap(ws.passive) < k {
		ws.passive = make([]bool, k)
		ws.idx = make([]int, 0, k)
		ws.z = make([]float64, k)
		ws.y = make([]float64, k)
		ws.chol = make([]float64, k*k)
	}
	ws.passive = ws.passive[:k]
	for j := range ws.passive {
		ws.passive[j] = false
	}
}

// nnlsGramTol mirrors the gradient tolerance of the allocating NNLS: the
// gradient here is d − Gx = Aᵀ(b − Ax), exactly the quantity the
// Lawson-Hanson loop in NNLS thresholds.
const nnlsGramTol = 1e-10

// NNLSGramInto solves the non-negative least-squares problem
//
//	min ||A x − b||_2  subject to  x >= 0
//
// given only its normal-equation quantities: the Gram matrix g = AᵀA (k×k,
// row-major) and the projection d = Aᵀb. The solution is written into x
// (length k). It is the allocation-free inner kernel of the candidate
// search in internal/fit: once per-candidate columns, norms, and
// projections are cached, every composition evaluation reduces to this
// tiny k×k solve.
//
// The algorithm is the same active-set iteration as NNLS with the passive
// subproblems solved by Cholesky on the Gram submatrix instead of QR on
// the column submatrix: closed form for one passive variable, a direct
// dense factorization above. Rank-deficient passive sets are handled the
// same way as in NNLS — the newest variable is dropped and the iteration
// continues — so degenerate compositions (e.g. two users at the same
// position) stay well-defined.
func NNLSGramInto(g, d, x []float64, ws *NNLSWorkspace) {
	k := len(d)
	if len(g) != k*k || len(x) != k {
		panic(fmt.Sprintf("mat: NNLSGramInto dimension mismatch: gram %d, d %d, x %d", len(g), len(d), len(x)))
	}
	ws.Solves++
	if k == 1 {
		// Closed form: one variable enters iff its gradient at zero is
		// positive and its column is non-degenerate.
		if d[0] > nnlsGramTol && g[0] > 0 {
			x[0] = d[0] / g[0]
		} else {
			x[0] = 0
		}
		return
	}
	ws.ensure(k)
	for j := range x {
		x[j] = 0
	}

	maxOuter := 3 * k
	for outer := 0; outer < maxOuter; outer++ {
		ws.Iters++
		// Gradient w = d − G x over the active (clamped) variables; pick the
		// most positive one.
		best, bestVal := -1, float64(nnlsGramTol)
		for j := 0; j < k; j++ {
			if ws.passive[j] {
				continue
			}
			s := d[j]
			for o := 0; o < k; o++ {
				if x[o] != 0 {
					s -= g[j*k+o] * x[o]
				}
			}
			if s > bestVal {
				best, bestVal = j, s
			}
		}
		if best < 0 {
			break // KKT conditions satisfied
		}
		ws.passive[best] = true

		// Inner loop: solve the equality-constrained problem on the passive
		// set and move x toward it, clamping variables that would go negative.
		for inner := 0; inner < maxOuter; inner++ {
			idx := ws.idx[:0]
			for j := 0; j < k; j++ {
				if ws.passive[j] {
					idx = append(idx, j)
				}
			}
			if !ws.cholSolve(g, d, k, idx) {
				// Degenerate passive set: drop the newest variable and stop.
				ws.passive[best] = false
				break
			}
			z := ws.z[:len(idx)]
			allPos := true
			for _, v := range z {
				if v <= nnlsGramTol {
					allPos = false
					break
				}
			}
			if allPos {
				for t, j := range idx {
					x[j] = z[t]
				}
				break
			}
			// Line search toward z: alpha = min over offending variables.
			alpha := math.Inf(1)
			for t, j := range idx {
				if z[t] <= nnlsGramTol {
					denom := x[j] - z[t]
					if denom > 0 {
						alpha = math.Min(alpha, x[j]/denom)
					}
				}
			}
			if math.IsInf(alpha, 1) {
				alpha = 0
			}
			for t, j := range idx {
				x[j] += alpha * (z[t] - x[j])
				if x[j] <= nnlsGramTol {
					x[j] = 0
					ws.passive[j] = false
				}
			}
		}
	}
}

// cholSolve solves G[idx,idx] z = d[idx] by a dense Cholesky factorization
// into the workspace, writing the solution into ws.z[:len(idx)]. It reports
// false when the submatrix is not (numerically) positive definite.
//
// Passive sets of two and three variables — every multi-variable passive
// set of a three-user composition — take unrolled branches that keep the
// factor in registers. They replay cholSolveLoop's operations one for one,
// in the same order, so their results are bit-identical to the loop's
// (FuzzCholSolveUnrolled pins this, rejected pivots included).
func (ws *NNLSWorkspace) cholSolve(g, d []float64, k int, idx []int) bool {
	switch len(idx) {
	case 0:
		return false
	case 1:
		j := idx[0]
		gjj := g[j*k+j]
		if gjj <= 0 {
			return false
		}
		ws.z[0] = d[j] / gjj
		return true
	case 2:
		return ws.cholSolve2(g, d, k, idx[0], idx[1])
	case 3:
		return ws.cholSolve3(g, d, k, idx[0], idx[1], idx[2])
	}
	return ws.cholSolveLoop(g, d, k, idx)
}

// cholPivotBad is the pivot test of the factorization: a relative
// threshold, because a pivot this far below the column's own squared norm
// means the column is numerically dependent on the earlier passive columns.
func cholPivotBad(s, gjj float64) bool {
	return s <= 0 || s <= 1e-13*gjj
}

// cholSolveLoop is the general-dimension factorization and the reference
// the unrolled branches replay. Every product is rounded explicitly
// (float64(...)) before it is subtracted, so no platform fuses the
// multiply-subtract into an FMA and the branches stay bit-identical to it
// everywhere.
func (ws *NNLSWorkspace) cholSolveLoop(g, d []float64, k int, idx []int) bool {
	m := len(idx)
	l := ws.chol
	for a := 0; a < m; a++ {
		ja := idx[a]
		for b := 0; b <= a; b++ {
			s := g[ja*k+idx[b]]
			for t := 0; t < b; t++ {
				s -= float64(l[a*m+t] * l[b*m+t])
			}
			if a == b {
				if cholPivotBad(s, g[ja*k+ja]) {
					return false
				}
				l[a*m+a] = math.Sqrt(s)
			} else {
				l[a*m+b] = s / l[b*m+b]
			}
		}
	}
	y := ws.y
	for a := 0; a < m; a++ {
		s := d[idx[a]]
		for t := 0; t < a; t++ {
			s -= float64(l[a*m+t] * y[t])
		}
		y[a] = s / l[a*m+a]
	}
	z := ws.z
	for a := m - 1; a >= 0; a-- {
		s := y[a]
		for t := a + 1; t < m; t++ {
			s -= float64(l[t*m+a] * z[t])
		}
		z[a] = s / l[a*m+a]
	}
	return true
}

// cholSolve2 is cholSolveLoop unrolled for the passive set {i0, i1}.
func (ws *NNLSWorkspace) cholSolve2(g, d []float64, k, i0, i1 int) bool {
	g00 := g[i0*k+i0]
	if cholPivotBad(g00, g00) {
		return false
	}
	l00 := math.Sqrt(g00)
	l10 := g[i1*k+i0] / l00
	g11 := g[i1*k+i1]
	s11 := g11 - float64(l10*l10)
	if cholPivotBad(s11, g11) {
		return false
	}
	l11 := math.Sqrt(s11)

	y0 := d[i0] / l00
	y1 := (d[i1] - float64(l10*y0)) / l11

	z1 := y1 / l11
	ws.z[1] = z1
	ws.z[0] = (y0 - float64(l10*z1)) / l00
	return true
}

// cholSolve3 is cholSolveLoop unrolled for the passive set {i0, i1, i2}.
func (ws *NNLSWorkspace) cholSolve3(g, d []float64, k, i0, i1, i2 int) bool {
	g00 := g[i0*k+i0]
	if cholPivotBad(g00, g00) {
		return false
	}
	l00 := math.Sqrt(g00)
	l10 := g[i1*k+i0] / l00
	g11 := g[i1*k+i1]
	s11 := g11 - float64(l10*l10)
	if cholPivotBad(s11, g11) {
		return false
	}
	l11 := math.Sqrt(s11)
	l20 := g[i2*k+i0] / l00
	l21 := (g[i2*k+i1] - float64(l20*l10)) / l11
	g22 := g[i2*k+i2]
	s22 := g22 - float64(l20*l20)
	s22 -= float64(l21 * l21)
	if cholPivotBad(s22, g22) {
		return false
	}
	l22 := math.Sqrt(s22)

	y0 := d[i0] / l00
	y1 := (d[i1] - float64(l10*y0)) / l11
	y2 := d[i2] - float64(l20*y0)
	y2 = (y2 - float64(l21*y1)) / l22

	z2 := y2 / l22
	z1 := (y1 - float64(l21*z2)) / l11
	z0 := y0 - float64(l10*z1)
	z0 = (z0 - float64(l20*z2)) / l00
	ws.z[0], ws.z[1], ws.z[2] = z0, z1, z2
	return true
}

// NNLSInto is the workspace-taking form of NNLS: it solves
// min ||A x − b||_2 subject to x >= 0 and writes the solution into x
// (length A.Cols()), forming the normal equations in the workspace and
// delegating to NNLSGramInto. After the workspace has grown to the problem
// dimension, repeated solves allocate nothing.
func NNLSInto(a *Dense, b, x []float64, ws *NNLSWorkspace) error {
	if a.rows != len(b) {
		return fmt.Errorf("mat: NNLSInto dimension mismatch %dx%d vs %d", a.rows, a.cols, len(b))
	}
	k := a.cols
	if len(x) != k {
		return fmt.Errorf("mat: NNLSInto solution length %d, want %d", len(x), k)
	}
	if cap(ws.gram) < k*k {
		ws.gram = make([]float64, k*k)
		ws.proj = make([]float64, k)
	}
	g := ws.gram[:k*k]
	d := ws.proj[:k]
	for i := range g {
		g[i] = 0
	}
	for j := range d {
		d[j] = 0
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		for p, vp := range row {
			if vp == 0 {
				continue
			}
			d[p] += vp * b[i]
			for q := p; q < k; q++ {
				g[p*k+q] += vp * row[q]
			}
		}
	}
	for p := 0; p < k; p++ {
		for q := p + 1; q < k; q++ {
			g[q*k+p] = g[p*k+q]
		}
	}
	NNLSGramInto(g, d, x, ws)
	return nil
}
