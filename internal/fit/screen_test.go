package fit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// The conditional scan ranks candidates through the closed-form screen of
// gram.go and recomputes exact objectives only where the screen cannot rule
// a candidate out. These tests pin that the screen is invisible: rankings,
// objectives, stretches and incumbents are byte-identical to evaluating
// every candidate exactly, across problem shapes chosen to stress the bound
// (exact fits, where the closed form cancels; ties; non-finite and extreme
// readings; rankings as wide as the candidate list).

// resultBytes serializes a Result bit-exactly, NaN payloads included, so
// two results compare equal iff every float has the same bits.
func resultBytes(res Result) []byte {
	var buf bytes.Buffer
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.Write(&buf, binary.LittleEndian, math.Float64bits(v))
		}
	}
	fmt.Fprintf(&buf, "exhaustive=%v best=%d;", res.Exhaustive, len(res.Best))
	for _, ev := range res.Best {
		for _, pos := range ev.Positions {
			put(pos.X, pos.Y)
		}
		put(ev.Stretches...)
		put(ev.Objective)
	}
	for j, ranked := range res.PerUser {
		fmt.Fprintf(&buf, "user %d: %d;", j, len(ranked))
		for _, r := range ranked {
			put(r.Pos.X, r.Pos.Y, r.Stretch, r.Objective)
			fmt.Fprintf(&buf, "%d,", r.Index)
		}
	}
	return buf.Bytes()
}

// screenCase is one problem/candidate shape for the differential test.
type screenCase struct {
	name  string
	k     int
	build func(t *testing.T, src *rng.Source, k int) (*Problem, [][]geom.Point)
	topM  int
}

func screenField(t *testing.T) (*fluxmodel.Model, []geom.Point, *rng.Source) {
	t.Helper()
	model, err := fluxmodel.New(geom.Square(30), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(4242)
	pts := make([]geom.Point, 81)
	for i := range pts {
		pts[i] = src.InRect(model.Field())
	}
	return model, pts, src
}

// screenProblem draws k users' candidates (nc each) and measurements from
// a random ground truth; exactFit plants the truth in every candidate list
// and leaves the readings noise-free, so the true composition fits to
// rounding and the closed form cancels to noise there.
func screenProblem(t *testing.T, k, nc int, weighted, masked, exactFit bool, scale float64) (*Problem, [][]geom.Point, []geom.Point) {
	t.Helper()
	model, pts, src := screenField(t)
	truths := make([]geom.Point, k)
	cs := make([]float64, k)
	for j := range truths {
		truths[j] = src.InRect(model.Field())
		cs[j] = src.Uniform(0.5, 3)
	}
	measured, err := model.PredictFlux(truths, cs, pts)
	if err != nil {
		t.Fatal(err)
	}
	if !exactFit {
		for i := range measured {
			measured[i] = math.Max(measured[i]*(1+0.1*src.Norm()), 0)
		}
	}
	cands := make([][]geom.Point, k)
	for j := range cands {
		cands[j] = make([]geom.Point, nc)
		for i := range cands[j] {
			cands[j][i] = src.InRect(model.Field())
		}
		if exactFit {
			cands[j][src.IntN(nc)] = truths[j]
		}
	}
	var weights []float64
	if weighted {
		weights = RelativeWeights(measured)
	}
	for i := range measured {
		measured[i] *= scale
	}
	var present []bool
	if masked {
		present = make([]bool, len(pts))
		for i := range present {
			present[i] = src.Float64() > 0.3
		}
	}
	p, err := NewProblemMasked(model, pts, measured, weights, present)
	if err != nil {
		t.Fatal(err)
	}
	return p, cands, truths
}

func screenCases() []screenCase {
	var cases []screenCase
	plain := func(weighted, masked, exactFit bool, scale float64) func(*testing.T, *rng.Source, int) (*Problem, [][]geom.Point) {
		return func(t *testing.T, _ *rng.Source, k int) (*Problem, [][]geom.Point) {
			p, cands, _ := screenProblem(t, k, 60, weighted, masked, exactFit, scale)
			return p, cands
		}
	}
	for k := 1; k <= 4; k++ {
		cases = append(cases,
			screenCase{name: "noisy", k: k, build: plain(false, false, false, 1)},
			screenCase{name: "weighted", k: k, build: plain(true, false, false, 1)},
			screenCase{name: "masked", k: k, build: plain(true, true, false, 1)},
			screenCase{name: "exact-fit", k: k, build: plain(false, false, true, 1)},
			screenCase{name: "exact-fit-weighted", k: k, build: plain(true, false, true, 1)},
			screenCase{name: "near-fit-cluster", k: k, build: func(t *testing.T, src *rng.Source, k int) (*Problem, [][]geom.Point) {
				p, cands, truths := screenProblem(t, k, 60, true, false, true, 1)
				for j, truth := range truths {
					// A cloud of candidates within 1e-9..1e-5 of the planted
					// truth: their exact objectives differ by less than the
					// closed form's cancellation noise.
					for i := 0; i < 30; i++ {
						r := math.Pow(10, -9+4*src.Float64())
						a := 2 * math.Pi * src.Float64()
						cands[j][2*i] = geom.Pt(truth.X+r*math.Cos(a), truth.Y+r*math.Sin(a))
					}
				}
				return p, cands
			}},
			screenCase{name: "overflow-scale", k: k, build: plain(false, false, false, 1e160)},
			screenCase{name: "subnormal-scale", k: k, build: plain(false, false, true, 1e-300)},
			screenCase{name: "topM>=candidates", k: k, build: plain(true, false, false, 1), topM: 75},
			screenCase{name: "ties", k: k, build: func(t *testing.T, src *rng.Source, k int) (*Problem, [][]geom.Point) {
				p, cands, _ := screenProblem(t, k, 60, true, false, false, 1)
				for j := range cands {
					cands[j] = duplicatedCandidates(p.Model().Field(), 60, src)
				}
				return p, cands
			}},
			screenCase{name: "nan-reading", k: k, build: func(t *testing.T, _ *rng.Source, k int) (*Problem, [][]geom.Point) {
				p, cands, _ := screenProblem(t, k, 60, false, false, false, 1)
				p.measured[7] = math.NaN()
				return rebuild(t, p), cands
			}},
			screenCase{name: "inf-reading", k: k, build: func(t *testing.T, _ *rng.Source, k int) (*Problem, [][]geom.Point) {
				p, cands, _ := screenProblem(t, k, 60, false, false, false, 1)
				p.measured[3] = math.Inf(1)
				return rebuild(t, p), cands
			}},
		)
	}
	return cases
}

// rebuild reconstructs a problem after its readings were edited, so the
// cached weighted measurement and its norm follow.
func rebuild(t *testing.T, p *Problem) *Problem {
	t.Helper()
	q, err := NewProblemWeighted(p.model, p.points, p.measured, p.weights)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestScreenedScanMatchesExact is the differential test of the screen: the
// full conditional search (greedy init, sweeps, restarts) with the screen
// on must be byte-identical to the same search recomputing every
// candidate exactly, and — on the well-conditioned shapes — the screen
// must actually have skipped work. A scan-level comparison against the
// pre-screen scan (kept verbatim below) covers non-finite candidate
// columns, which no kernel produces.
func TestScreenedScanMatchesExact(t *testing.T) {
	for _, tc := range screenCases() {
		t.Run(fmt.Sprintf("%s/k=%d", tc.name, tc.k), func(t *testing.T) {
			src := rng.New(uint64(100 + tc.k))
			p, cands := tc.build(t, src, tc.k)
			opts := Options{TopM: tc.topM, MaxExhaustive: 1, Seed: 9, Workers: 2}
			screened, exact := NewSearcher(), NewSearcher()
			exact.exactScan = true
			got, err := screened.Search(p, cands, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := exact.Search(p, cands, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resultBytes(got), resultBytes(want)) {
				t.Fatalf("screened search differs from the all-exact search:\n got %+v\nwant %+v", got.PerUser, want.PerUser)
			}
			gs, gi := screened.WorkTotals()
			ws, wi := exact.WorkTotals()
			if gs != ws || gi != wi {
				t.Errorf("NNLS work moved: screened (%d solves, %d iters), exact (%d, %d)", gs, gi, ws, wi)
			}
			if finite := !(tc.name == "nan-reading" || tc.name == "inf-reading" || tc.name == "overflow-scale" ||
				tc.name == "subnormal-scale" || tc.name == "topM>=candidates"); finite && screened.screenRan*2 > exact.screenRan {
				t.Errorf("screen recomputed %d of %d candidates; expected it to skip most", screened.screenRan, exact.screenRan)
			}
		})
	}
}

// TestScreenedScanUserMatchesLegacy drives scanUser directly against the
// pre-screen implementation on random assignment states, including
// candidates whose cached columns carry NaN or Inf (mixed finite and
// non-finite closed forms in one scan) and rankings wider than the list.
func TestScreenedScanUserMatchesLegacy(t *testing.T) {
	src := rng.New(77)
	for trial := 0; trial < 60; trial++ {
		k := 1 + trial%4
		p, cands, _ := screenProblem(t, k, 50, trial%3 == 0, trial%5 == 0, trial%2 == 0, 1)
		topM := []int{1, 10, 50, 80}[trial%4]
		opts := Options{TopM: topM, Workers: 1 + trial%3}.withDefaults()
		poison := trial%3 == 1
		prep := func() *Searcher {
			s := NewSearcher()
			if err := s.prepare(p, cands, 1); err != nil {
				t.Fatal(err)
			}
			if poison {
				for j := range s.cands {
					poisonCol(p, &s.cands[j][4], math.NaN())
					poisonCol(p, &s.cands[j][9], math.Inf(1))
				}
			}
			return s
		}
		screened, legacy := prep(), prep()
		assigned := make([]bool, k)
		idxA, idxB := make([]int, k), make([]int, k)
		for o := range assigned {
			assigned[o] = src.Float64() < 0.7
			idxA[o] = src.IntN(50)
			idxB[o] = idxA[o]
		}
		for rep := 0; rep < 2; rep++ { // second pass reuses warm arenas
			for j := 0; j < k; j++ {
				wantRanked := (j+rep)%2 == 0
				gotR, gotE, err := screened.scanUser(p, cands, idxA, assigned, j, opts, wantRanked)
				if err != nil {
					t.Fatal(err)
				}
				wantR, wantE, err := legacyScanUser(legacy, p, cands, idxB, assigned, j, opts, wantRanked)
				if err != nil {
					t.Fatal(err)
				}
				g := resultBytes(Result{Best: []Eval{gotE}, PerUser: [][]RankedPosition{gotR}})
				w := resultBytes(Result{Best: []Eval{wantE}, PerUser: [][]RankedPosition{wantR}})
				if !bytes.Equal(g, w) || fmt.Sprint(idxA) != fmt.Sprint(idxB) {
					t.Fatalf("trial %d user %d: screened scan %v / %v (idx %v), legacy %v / %v (idx %v)",
						trial, j, gotR, gotE, idxA, wantR, wantE, idxB)
				}
			}
		}
	}
}

// poisonCol plants a non-finite entry in a cached column and refreshes its
// Gram scalars the way finishCandCol would have computed them.
func poisonCol(p *Problem, c *candCol, v float64) {
	c.wcol[0] = v
	c.norm2, c.proj = 0, 0
	for i, w := range c.wcol {
		c.norm2 += w * w
		c.proj += w * p.wb[i]
	}
}

// legacyScanUser is the scan as it was before the screen: every candidate
// solved and evaluated exactly through evalScratch.solve, then a full sort.
func legacyScanUser(s *Searcher, p *Problem, candidates [][]geom.Point, bestIdx []int, assigned []bool,
	j int, opts Options, wantRanked bool) ([]RankedPosition, Eval, error) {
	k := len(candidates)
	fixed := 0
	for o := 0; o < k; o++ {
		if o != j && assigned[o] {
			fixed++
		}
	}
	kk := fixed + 1
	nc := len(candidates[j])
	objs := make([]float64, nc)
	strJ := make([]float64, nc)
	workers := resolveWorkers(nc, opts.Workers)
	scratches := s.scratchSet(workers, len(p.points), kk)
	err := parallelFor(nc, opts.Workers, func(w, i int) error {
		sc := scratches[w]
		sc.setK(kk)
		slot := 0
		for o := 0; o < k; o++ {
			if o == j || !assigned[o] {
				continue
			}
			sc.setCol(slot, &s.cands[o][bestIdx[o]])
			slot++
		}
		sc.setCol(kk-1, &s.cands[j][i])
		objs[i] = sc.solve(p)
		strJ[i] = sc.x[kk-1]
		return nil
	})
	if err != nil {
		return nil, Eval{}, err
	}
	bestI := bestIdx[j]
	bestObj := math.Inf(1)
	for i := 0; i < nc; i++ {
		if objs[i] < bestObj {
			bestObj, bestI = objs[i], i
		}
	}
	bestIdx[j] = bestI
	var ranked []RankedPosition
	if wantRanked {
		ord := make([]int, nc)
		for i := range ord {
			ord[i] = i
		}
		sort.Slice(ord, func(a, b int) bool {
			if objs[ord[a]] != objs[ord[b]] {
				return objs[ord[a]] < objs[ord[b]]
			}
			return ord[a] < ord[b]
		})
		ranked = make([]RankedPosition, min(opts.TopM, nc))
		for t := range ranked {
			i := ord[t]
			ranked[t] = RankedPosition{Pos: candidates[j][i], Index: i, Stretch: strJ[i], Objective: objs[i]}
		}
	}
	var bestEval Eval
	allAssigned := true
	for o := 0; o < k; o++ {
		if o != j && !assigned[o] {
			allAssigned = false
		}
	}
	if allAssigned {
		sc := scratches[0]
		sc.setK(k)
		for o := 0; o < k; o++ {
			sc.setCol(o, &s.cands[o][bestIdx[o]])
		}
		obj := sc.solve(p)
		positions := make([]geom.Point, k)
		for o := range positions {
			positions[o] = candidates[o][bestIdx[o]]
		}
		bestEval = makeEval(positions, sc.x[:k], obj)
	}
	return ranked, bestEval, nil
}

// TestScreenedScanZeroAllocs: once the arenas are warm, a screened scan —
// the parallel pass, the top-M selection and the exact recomputes — makes
// no heap allocation. The shape is the greedy initialization's (two users
// fixed, one still unplaced, so no incumbent Eval is materialized).
func TestScreenedScanZeroAllocs(t *testing.T) {
	p, cands, _ := screenProblem(t, 4, 200, true, false, false, 1)
	s := NewSearcher()
	if err := s.prepare(p, cands, 1); err != nil {
		t.Fatal(err)
	}
	assigned := []bool{true, true, true, false}
	bestIdx := []int{0, 3, 5, 0}
	opts := Options{Workers: 1}.withDefaults()
	scan := func() {
		if _, _, err := s.scanUser(p, cands, bestIdx, assigned, 0, opts, false); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	if allocs := testing.AllocsPerRun(50, scan); allocs != 0 {
		t.Fatalf("steady-state screened scan allocates %.1f times, want 0", allocs)
	}
}
