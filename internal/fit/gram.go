// Gram-cached composition evaluation.
//
// The candidate search ranks up to MaxExhaustive compositions per call, and
// every composition evaluation is a tiny non-negative least-squares solve
// min ‖W(Ac − F′)‖₂ whose columns are drawn from a fixed per-candidate
// pool. Rather than rebuilding the weighted n×k matrix per composition (the
// pre-PR-2 path: one Dense, one weighted copy of F′, and a general QR-based
// Lawson–Hanson solve, all allocating), the evaluator caches per candidate
//
//	wcol  = W·g(sink)        the weighted kernel column,
//	norm2 = ⟨wcol, wcol⟩     its squared norm (the Gram diagonal),
//	proj  = ⟨wcol, W·F′⟩     its projection onto the weighted measurement,
//
// so a composition only needs the k(k−1)/2 cross-terms ⟨wcolᵢ, wcolⱼ⟩ plus
// a k×k NNLS solved in a preallocated workspace (mat.NNLSGramInto).
//
// Every reported objective is the exact one: the norm of the explicit
// n-long weighted residual (residualNorm). The normal-equation identity
//
//	‖r‖² = ‖wb‖² − 2xᵀd + xᵀGx     (wb = W·F′, d = projections, G = Gram)
//
// costs O(k²) instead of O(n·k), but it cancels catastrophically for good
// fits, so it is never reported. The conditional scan uses it as a screen
// instead (see Searcher.scanUser): solveScreened returns the closed form q
// together with a rounding bound e such that the exact objective R, as
// residualNorm computes it in floating point, satisfies R² ∈ [q−e, q+e].
// With U the M-th smallest q+e of a scan, at least M candidates have
// R² ≤ U, so any candidate with q−e > U is strictly worse than M others:
// it can enter neither the top-M ranking nor the argmin, under any
// tie-breaking. Only the other candidates get their exact R recomputed,
// from the stretches the NNLS already produced, so the ranked output is
// byte-identical to evaluating every candidate exactly.
//
// The bound is e = τ·(‖wb‖² + 2Σ|xⱼdⱼ| + Σ|xⱼGⱼₗxₗ|) + ν. The identity holds
// exactly in real arithmetic for any x, so e only has to cover rounding:
// the n-term dot products behind ‖wb‖², d and G, the O(k²) combination,
// and the residual path's own subtractions and scaled norm. Each of those
// errors is at most a few (n + k²)·u times s² with u = 2⁻⁵³ and
// s = ‖wb‖ + Σ|xⱼ|·‖wcolⱼ‖, and s² ≤ (k+1)·(the bracket above) by
// Cauchy–Schwarz. screenBound picks τ = max(1e-8, 64·(n+k²+8)·(k+1)·u),
// which at the tracker's n ≈ 80 is about 10⁴ times the worst case, enough
// to also absorb the screen's own comparisons; ν is an absolute floor for
// subnormal underflow. A non-finite q or e always forces the exact
// recompute, and a NaN among the exact objectives makes the scan recompute
// every candidate, so the ranking then sorts exactly the array the
// unscreened scan sorted.
//
// Every Gram entry is a pure function of its candidate pair (the dot
// product runs in ascending index order regardless of which slot changed),
// so evaluations are bit-identical no matter how compositions are sharded
// across workers or in which order slots were filled: the determinism
// contract of internal/exp survives unchanged.
package fit

import (
	"math"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/mat"
)

// candCol is the per-candidate cache of the Gram evaluator. Pointer
// identity doubles as the cache key inside evalScratch: candCols live in
// stable slices owned by a Searcher for the duration of one search.
type candCol struct {
	wcol  []float64 // weighted kernel column W·g(sink) over the sample points
	norm2 float64   // ⟨wcol, wcol⟩
	proj  float64   // ⟨wcol, wb⟩ with wb the weighted measurement W·F′
}

// fillCandCol computes the candidate cache for one sink position into c,
// whose wcol must already be sized to the sample count. It performs no
// allocations.
func (p *Problem) fillCandCol(sink geom.Point, c *candCol) {
	p.model.KernelVectorInto(sink, p.points, c.wcol)
	p.finishCandCol(c)
}

// finishCandCol weights a raw kernel column in place and computes its Gram
// diagonal and measurement projection. The column must already hold
// g(sink, p_i) over the sample points — either from fillCandCol's
// single-column path or from a batched KernelMatrixInto fill in prepare.
func (p *Problem) finishCandCol(c *candCol) {
	wcol := c.wcol
	if p.weights != nil {
		for i, w := range p.weights {
			wcol[i] *= w
		}
	}
	var norm2, proj float64
	for i, v := range wcol {
		norm2 += v * v
		proj += v * p.wb[i]
	}
	c.norm2, c.proj = norm2, proj
}

// evalScratch is one worker's reusable state for evaluating compositions:
// the current composition's Gram matrix and projections, the NNLS solution
// and workspace, and a residual buffer. After ensure has sized it, the
// evaluate path (setK/setCol/solve) performs zero heap allocations.
//
// The scratch caches the composition incrementally: setCol is a no-op when
// the slot already holds the same candidate, so enumeration orders that
// vary one user at a time (the mixed-radix exhaustive scan, the
// one-user-at-a-time conditional scan) only pay for the Gram row that
// actually changed — a rank-1 row update instead of a full k×k recompute.
type evalScratch struct {
	n, k  int
	cur   []*candCol // current composition, slot-indexed; nil = unset
	gram  []float64  // k×k row-major Gram matrix of the current composition
	d     []float64  // per-slot projections ⟨wcol, wb⟩
	x     []float64  // NNLS solution (fitted stretches), valid after solve
	resid []float64  // length-n weighted residual buffer
	ws    mat.NNLSWorkspace
}

// ensure sizes the scratch for problems with n samples and compositions of
// up to kMax users, and invalidates any cached composition (the caller may
// have rewritten the candidate pool backing the cached pointers).
func (sc *evalScratch) ensure(n, kMax int) {
	if cap(sc.cur) < kMax {
		sc.cur = make([]*candCol, kMax)
		sc.gram = make([]float64, kMax*kMax)
		sc.d = make([]float64, kMax)
		sc.x = make([]float64, kMax)
	}
	if cap(sc.resid) < n {
		sc.resid = make([]float64, n)
	}
	sc.resid = sc.resid[:n]
	sc.n = n
	sc.k = 0 // forces the next setK to clear the slot cache
}

// setK sets the active composition size. Changing the size relayouts the
// Gram matrix, so the slot cache is cleared.
func (sc *evalScratch) setK(k int) {
	if sc.k == k {
		return
	}
	sc.k = k
	cur := sc.cur[:k]
	for j := range cur {
		cur[j] = nil
	}
}

// setCol installs candidate c in slot j, refreshing row and column j of the
// Gram matrix against the other occupied slots. Unchanged slots (pointer
// equality) cost nothing.
func (sc *evalScratch) setCol(j int, c *candCol) {
	if sc.cur[j] == c {
		return
	}
	sc.cur[j] = c
	k := sc.k
	sc.d[j] = c.proj
	sc.gram[j*k+j] = c.norm2
	for o := 0; o < k; o++ {
		oc := sc.cur[o]
		if o == j || oc == nil {
			continue
		}
		v := mat.Dot(c.wcol, oc.wcol)
		sc.gram[j*k+o] = v
		sc.gram[o*k+j] = v
	}
}

// solve fits the stretch factors of the current composition and returns the
// minimized weighted objective ‖W(Ac − F′)‖₂. The fitted stretches are left
// in sc.x[:sc.k], slot-aligned. Steady state performs no heap allocations.
func (sc *evalScratch) solve(p *Problem) float64 {
	k := sc.k
	mat.NNLSGramInto(sc.gram[:k*k], sc.d[:k], sc.x[:k], &sc.ws)
	return sc.residualNorm(p, sc.cur[:k], sc.x[:k])
}

// solveScreened runs the same NNLS as solve but skips the residual: it
// returns the closed-form squared objective q = ‖wb‖² − 2xᵀd + xᵀGx and a
// bound e with the exact objective's square in [q−e, q+e] (see the file
// comment; tau and floor come from screenBound). The stretches are left in
// sc.x[:sc.k], so residualNorm can later produce the exact objective
// without another solve.
func (sc *evalScratch) solveScreened(p *Problem, tau, floor float64) (q, e float64) {
	k := sc.k
	x := sc.x[:k]
	mat.NNLSGramInto(sc.gram[:k*k], sc.d[:k], x, &sc.ws)
	var xd, xdAbs, xgx, xgxAbs float64
	for j, xj := range x {
		t := xj * sc.d[j]
		xd += t
		xdAbs += math.Abs(t)
		for l, gjl := range sc.gram[j*k : j*k+k] {
			t := xj * gjl * x[l]
			xgx += t
			xgxAbs += math.Abs(t)
		}
	}
	q = p.wbSq - 2*xd + xgx
	e = tau*(p.wbSq+2*xdAbs+xgxAbs) + floor
	return q, e
}

// screenBound returns the relative factor τ and absolute floor ν of the
// screen's rounding bound for n samples and k-user compositions.
func screenBound(n, k int) (tau, floor float64) {
	terms := float64((n + k*k + 8) * (k + 1))
	return math.Max(1e-8, 64*terms*0x1p-53), terms * 0x1p-1060
}

// residualNorm returns the exact weighted objective ‖wb − Σⱼ xⱼ·colsⱼ‖₂
// of the composition cols with stretches x, through the explicit residual
// and the overflow-safe mat.Norm2. Equal inputs give equal bits, which is
// what lets the screened scan recompute an objective from stored stretches
// instead of re-solving.
func (sc *evalScratch) residualNorm(p *Problem, cols []*candCol, x []float64) float64 {
	resid := sc.resid
	copy(resid, p.wb)
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		for i, v := range cols[j].wcol {
			resid[i] -= xj * v
		}
	}
	return mat.Norm2(resid)
}

// makeEval materializes an Eval from slot-aligned positions and stretches.
// The search paths call it only for compositions that actually enter a
// top-M list or improve a per-user best, so steady-state evaluations — the
// overwhelming majority — allocate nothing.
func makeEval(positions []geom.Point, stretches []float64, obj float64) Eval {
	return Eval{
		Positions: append([]geom.Point(nil), positions...),
		Stretches: append([]float64(nil), stretches...),
		Objective: obj,
	}
}
