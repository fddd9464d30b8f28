package fit

import (
	"math"
	"testing"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mat"
	"fluxtrack/internal/rng"
)

// referenceEvaluate is the pre-Gram evaluation path, kept verbatim as the
// numerical reference: build the weighted n×k matrix, weight the
// measurement, run the QR-based Lawson-Hanson NNLS, and measure the
// residual norm. The production evaluator must reproduce its objectives and
// stretches to solver tolerance (the passive-set sub-solver changed from QR
// on the columns to Cholesky on the Gram matrix, so agreement is to
// floating-point conditioning, not bit-for-bit).
func referenceEvaluate(p *Problem, positions []geom.Point) (Eval, error) {
	cols := make([][]float64, len(positions))
	for j, pos := range positions {
		cols[j] = p.KernelColumn(pos)
	}
	n, k := len(p.points), len(positions)
	a := mat.NewDense(n, k)
	b := p.measured
	if p.weights != nil {
		b = make([]float64, n)
		for i, w := range p.weights {
			b[i] = w * p.measured[i]
		}
	}
	for j, col := range cols {
		for i, v := range col {
			if p.weights != nil {
				v *= p.weights[i]
			}
			a.Set(i, j, v)
		}
	}
	cs, err := mat.NNLS(a, b)
	if err != nil {
		return Eval{}, err
	}
	pred, err := a.MulVec(cs)
	if err != nil {
		return Eval{}, err
	}
	return Eval{
		Positions: append([]geom.Point(nil), positions...),
		Stretches: cs,
		Objective: mat.Norm2(mat.Sub(pred, b)),
	}, nil
}

// randomEquivProblem builds a problem with measurements generated from a
// random ground-truth composition plus noise, over random sample points.
func randomEquivProblem(t *testing.T, src *rng.Source, weighted bool) (*Problem, geom.Rect) {
	t.Helper()
	field := geom.Square(30)
	model, err := fluxmodel.New(field, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	n := 8 + src.IntN(25)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = src.InRect(field)
	}
	kTrue := 1 + src.IntN(3)
	measured := make([]float64, n)
	for u := 0; u < kTrue; u++ {
		sink := src.InRect(field)
		c := src.Uniform(0.5, 3)
		col := model.KernelVector(sink, pts)
		for i := range measured {
			measured[i] += c * col[i]
		}
	}
	for i := range measured {
		measured[i] *= 1 + 0.1*src.Norm()
		measured[i] = math.Max(measured[i], 0)
	}
	var weights []float64
	if weighted {
		weights = RelativeWeights(measured)
	}
	p, err := NewProblemWeighted(model, pts, measured, weights)
	if err != nil {
		t.Fatal(err)
	}
	return p, field
}

// TestGramEvaluatorMatchesReference: across randomized problems (k = 1..4,
// weighted and unweighted), the Gram-cached evaluator produces the same
// Objective and Stretches as the pre-PR-2 QR path.
func TestGramEvaluatorMatchesReference(t *testing.T) {
	src := rng.New(2024)
	for trial := 0; trial < 300; trial++ {
		weighted := trial%2 == 0
		p, field := randomEquivProblem(t, src, weighted)
		k := 1 + trial%4
		positions := make([]geom.Point, k)
		for j := range positions {
			positions[j] = src.InRect(field)
		}

		want, err := referenceEvaluate(p, positions)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		got, err := p.Evaluate(positions)
		if err != nil {
			t.Fatalf("trial %d: Evaluate: %v", trial, err)
		}

		scale := 1 + want.Objective
		if d := math.Abs(got.Objective - want.Objective); d > 1e-8*scale {
			t.Errorf("trial %d (k=%d weighted=%v): objective %v, reference %v (diff %v)",
				trial, k, weighted, got.Objective, want.Objective, d)
		}
		for j := range want.Stretches {
			if d := math.Abs(got.Stretches[j] - want.Stretches[j]); d > 1e-6*(1+math.Abs(want.Stretches[j])) {
				t.Errorf("trial %d (k=%d weighted=%v): stretch[%d] = %v, reference %v",
					trial, k, weighted, j, got.Stretches[j], want.Stretches[j])
			}
		}
	}
}

// TestGramEvaluatorDegenerateComposition: duplicated positions (identical
// columns, a singular Gram matrix) must stay finite and match the reference
// objective — the active-set solver drops the dependent column exactly like
// the QR path declared it singular.
func TestGramEvaluatorDegenerateComposition(t *testing.T) {
	src := rng.New(7)
	p, field := randomEquivProblem(t, src, false)
	pos := src.InRect(field)
	positions := []geom.Point{pos, pos, src.InRect(field)}
	want, err := referenceEvaluate(p, positions)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Evaluate(positions)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got.Objective) || got.Objective < 0 {
		t.Fatalf("degenerate composition objective = %v", got.Objective)
	}
	if d := math.Abs(got.Objective - want.Objective); d > 1e-8*(1+want.Objective) {
		t.Errorf("degenerate composition: objective %v, reference %v", got.Objective, want.Objective)
	}
}

// TestGramEvaluatorDeterministic: evaluating the same composition twice —
// and through differently-warmed scratches — yields bit-identical results.
// This is the property the worker-invariance of the search rests on.
func TestGramEvaluatorDeterministic(t *testing.T) {
	src := rng.New(55)
	p, field := randomEquivProblem(t, src, true)
	positions := []geom.Point{src.InRect(field), src.InRect(field), src.InRect(field)}
	first, err := p.Evaluate(positions)
	if err != nil {
		t.Fatal(err)
	}
	// A searcher pre-warmed on a different composition must agree exactly.
	s := NewSearcher()
	if _, err := s.Evaluate(p, []geom.Point{src.InRect(field), src.InRect(field)}); err != nil {
		t.Fatal(err)
	}
	second, err := s.Evaluate(p, positions)
	if err != nil {
		t.Fatal(err)
	}
	if first.Objective != second.Objective {
		t.Errorf("objective not deterministic: %v vs %v", first.Objective, second.Objective)
	}
	for j := range first.Stretches {
		if first.Stretches[j] != second.Stretches[j] {
			t.Errorf("stretch[%d] not deterministic: %v vs %v", j, first.Stretches[j], second.Stretches[j])
		}
	}
}

// TestEvaluateScratchZeroAllocs is the tentpole's allocation guard: once a
// scratch is warm, the full evaluation path — slot updates with Gram row
// recomputation, the k×k NNLS, and the residual-based objective — performs
// zero heap allocations. The test alternates between two compositions so
// setCol really rewrites Gram rows instead of short-circuiting.
func TestEvaluateScratchZeroAllocs(t *testing.T) {
	src := rng.New(31)
	p, field := randomEquivProblem(t, src, true)
	n := len(p.points)
	const k = 3
	comps := make([][]candCol, 2)
	for c := range comps {
		comps[c] = make([]candCol, k)
		for j := range comps[c] {
			comps[c][j].wcol = make([]float64, n)
			p.fillCandCol(src.InRect(field), &comps[c][j])
		}
	}
	sc := &evalScratch{}
	sc.ensure(n, k)
	sc.setK(k)
	flip := 0
	allocs := testing.AllocsPerRun(200, func() {
		cc := comps[flip]
		flip = 1 - flip
		for j := range cc {
			sc.setCol(j, &cc[j])
		}
		if obj := sc.solve(p); math.IsNaN(obj) {
			t.Fatal("NaN objective")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state evaluation allocates %.1f times per composition, want 0", allocs)
	}
}

// BenchmarkCompositionEval measures the steady-state cost of one
// composition evaluation (k users, alternating compositions so one Gram
// row is recomputed per eval, like the exhaustive scan's innermost loop);
// -benchmem must report 0 allocs/op for those. The track cases time the
// screened conditional scan per composition (see benchTrackScan).
func BenchmarkCompositionEval(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run(map[int]string{1: "k=1", 2: "k=2", 3: "k=3"}[k], func(b *testing.B) {
			src := rng.New(77)
			field := geom.Square(30)
			model, err := fluxmodel.New(field, 0.7)
			if err != nil {
				b.Fatal(err)
			}
			n := 90
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = src.InRect(field)
			}
			measured := model.KernelVector(src.InRect(field), pts)
			p, err := NewProblemWeighted(model, pts, measured, RelativeWeights(measured))
			if err != nil {
				b.Fatal(err)
			}
			const pool = 64
			cands := make([]candCol, pool)
			for i := range cands {
				cands[i].wcol = make([]float64, n)
				p.fillCandCol(src.InRect(field), &cands[i])
			}
			sc := &evalScratch{}
			sc.ensure(n, k)
			sc.setK(k)
			for j := 0; j < k; j++ {
				sc.setCol(j, &cands[j])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.setCol(k-1, &cands[i%pool])
				benchObj += sc.solve(p)
			}
		})
	}
	b.Run("track-screened", func(b *testing.B) { benchTrackScan(b, false) })
	b.Run("track-exact", func(b *testing.B) { benchTrackScan(b, true) })
}

// benchTrackScan measures the conditional scan at the tracker's shape: 81
// sniffed nodes, three users, 1000 candidates for the scanned user with the
// other two fixed — one scan per iteration (a refinement-sweep scan, so it
// includes the incumbent re-evaluation and its Eval), reported as
// ns/composition. exact recomputes every candidate's residual, the cost the
// screen avoids.
func benchTrackScan(b *testing.B, exact bool) {
	src := rng.New(78)
	field := geom.Square(30)
	model, err := fluxmodel.New(field, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	const n, k, nc = 81, 3, 1000
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = src.InRect(field)
	}
	truths := []geom.Point{src.InRect(field), src.InRect(field), src.InRect(field)}
	measured, err := model.PredictFlux(truths, []float64{1.5, 2, 2.5}, pts)
	if err != nil {
		b.Fatal(err)
	}
	for i := range measured {
		measured[i] = math.Max(measured[i]*(1+0.1*src.Norm()), 0)
	}
	p, err := NewProblemWeighted(model, pts, measured, RelativeWeights(measured))
	if err != nil {
		b.Fatal(err)
	}
	cands := make([][]geom.Point, k)
	for j := range cands {
		cands[j] = make([]geom.Point, nc)
		for i := range cands[j] {
			cands[j][i] = src.InRect(field)
		}
	}
	s := NewSearcher()
	s.exactScan = exact
	if err := s.prepare(p, cands, 1); err != nil {
		b.Fatal(err)
	}
	assigned := []bool{true, true, false}
	bestIdx := []int{0, 1, 0}
	opts := Options{Workers: 1}.withDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.scanUser(p, cands, bestIdx, assigned, 2, opts, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nc), "ns/composition")
}

// BenchmarkCompositionEvalReference is the pre-Gram path on the same
// workload, for before/after comparison in the benchmark logs.
func BenchmarkCompositionEvalReference(b *testing.B) {
	src := rng.New(77)
	field := geom.Square(30)
	model, err := fluxmodel.New(field, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	n := 90
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = src.InRect(field)
	}
	measured := model.KernelVector(src.InRect(field), pts)
	p, err := NewProblemWeighted(model, pts, measured, RelativeWeights(measured))
	if err != nil {
		b.Fatal(err)
	}
	const pool = 64
	positions := make([]geom.Point, pool)
	for i := range positions {
		positions[i] = src.InRect(field)
	}
	comp := make([]geom.Point, 3)
	comp[0], comp[1] = positions[0], positions[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp[2] = positions[i%pool]
		ev, err := referenceEvaluate(p, comp)
		if err != nil {
			b.Fatal(err)
		}
		benchObj += ev.Objective
	}
}

var benchObj float64
