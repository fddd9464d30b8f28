package smc

import (
	"reflect"
	"testing"

	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

// Tracker-level coverage of the coarse-to-fine prestage: full-K degradation
// to the exact path, worker invariance at realistic K (clean, masked, and
// stale rounds), and the index-ordered tie-breaks of the active-set
// selection.

// coarseScenario runs a three-user tracking scenario with the given worker
// count and coarse config, returning every StepResult. Rounds 3 and 4 run
// through StepMasked with a deterministic partial mask and one stale
// sensor, so the compacted (origIdx) alignment of the prestage is exercised
// alongside the clean path.
func coarseScenario(t testing.TB, workers, rounds int, coarse fingerprint.CoarseConfig) []StepResult {
	t.Helper()
	m, pts := testModel(t, 30)
	tr, err := New(Config{
		Model: m, SamplePoints: pts, NumUsers: 3,
		N: 200, M: 8, VMax: 3,
		Search:  fit.Options{Seed: 99},
		Workers: workers,
		Coarse:  coarse,
	}, 31)
	if err != nil {
		t.Fatal(err)
	}
	msrc := rng.New(555)
	present := make([]bool, len(pts))
	age := make([]int, len(pts))
	out := make([]StepResult, 0, rounds)
	for step := 1; step <= rounds; step++ {
		truths := []geom.Point{
			geom.Pt(5+1.5*float64(step), 8),
			geom.Pt(25-1.5*float64(step), 22),
			geom.Pt(15, 5+2*float64(step)),
		}
		obs := observe(t, m, pts, truths, []float64{1.5, 2.0, 1.0})
		var res StepResult
		if step == 3 || step == 4 {
			kept := 0
			for i := range present {
				present[i] = msrc.Float64() < 0.8
				if present[i] {
					kept++
				}
				age[i] = 0
			}
			if kept == 0 {
				present[0] = true
			}
			age[0] = 1 // one stale sensor: the deflated-weight path
			res, err = tr.StepMasked(float64(step), obs, present, age)
		} else {
			res, err = tr.Step(float64(step), obs)
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// TestStepCoarseFullKMatchesExact is the tracker-level differential test:
// with TopK at (or above) the per-user candidate count N, the coarse
// tracker's output — across clean, masked, and stale rounds — must be
// byte-identical to a tracker with no prestage at all.
func TestStepCoarseFullKMatchesExact(t *testing.T) {
	exact := coarseScenario(t, 1, 6, fingerprint.CoarseConfig{})
	full := coarseScenario(t, 1, 6, fingerprint.CoarseConfig{Enabled: true, TopK: 200})
	if !reflect.DeepEqual(exact, full) {
		t.Fatal("coarse tracker with TopK=N diverges from the exact tracker")
	}
	over := coarseScenario(t, 1, 6, fingerprint.CoarseConfig{Enabled: true, TopK: 1000, GridRes: 16})
	if !reflect.DeepEqual(exact, over) {
		t.Fatal("coarse tracker with TopK>N diverges from the exact tracker")
	}
}

// TestStepWorkerInvarianceCoarse demands byte-identical coarse-tracker
// output at every worker count, at a realistic (lossy) shortlist size and
// including the masked/stale rounds: the prestage's cell scores, quadtree
// probes, and shortlist selection must all be pure functions of the round.
func TestStepWorkerInvarianceCoarse(t *testing.T) {
	coarse := fingerprint.CoarseConfig{Enabled: true, TopK: 48}
	serial := coarseScenario(t, 1, 6, coarse)
	for _, workers := range []int{2, 4, 8, 0} {
		got := coarseScenario(t, workers, 6, coarse)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("Workers=%d diverges from serial coarse output", workers)
		}
	}
}

// TestStepCoarseActiveSetWorkerInvariance covers the prestage composed with
// the ActiveSetLimit path: subset searches shortlist only the searched
// users, and the incumbent fits stay exact.
func TestStepCoarseActiveSetWorkerInvariance(t *testing.T) {
	run := func(workers int) []StepResult {
		m, pts := testModel(t, 34)
		tr, err := New(Config{
			Model: m, SamplePoints: pts, NumUsers: 6,
			N: 120, M: 6, VMax: 3,
			ActiveSetLimit: 3,
			Search:         fit.Options{Seed: 7},
			Workers:        workers,
			Coarse:         fingerprint.CoarseConfig{Enabled: true, TopK: 40, GridRes: 16},
		}, 35)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]StepResult, 0, 5)
		for step := 1; step <= 5; step++ {
			truths := []geom.Point{geom.Pt(6, 6), geom.Pt(24, 6), geom.Pt(6, 24)}
			obs := observe(t, m, pts, truths, []float64{2, 1.5, 1})
			res, err := tr.Step(float64(step), obs)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	serial := run(1)
	if got := run(4); !reflect.DeepEqual(serial, got) {
		t.Fatal("coarse ActiveSetLimit path diverges between Workers=1 and Workers=4")
	}
}

// TestSelectActiveTieBreaks pins the index-ordered tie-breaks of the
// active-set selection: with fully symmetric users (identical incumbent
// positions, equal lastUpdate), repeated selections must return the same
// subset, and the subset must prefer the lowest user indices.
func TestSelectActiveTieBreaks(t *testing.T) {
	m, pts := testModel(t, 40)
	const users = 8
	tr, err := New(Config{
		Model: m, SamplePoints: pts, NumUsers: users,
		N: 50, M: 5, VMax: 3,
		ActiveSetLimit: 3,
	}, 41)
	if err != nil {
		t.Fatal(err)
	}
	// Pin every user at the same far-corner incumbent with equal
	// lastUpdate: stretches tie (identical kernel columns) and staleness
	// ties, so every ordering decision rides on the index tie-breaks.
	for j := 0; j < users; j++ {
		u := tr.ensure(j)
		u.initialized = true
		u.samples = []geom.Point{geom.Pt(28, 28)}
		u.weights = []float64{1}
		u.lastUpdate = 1
	}
	// True flux comes from the opposite corner, so the incumbent fit is
	// poor and the stale fill path runs too.
	obs := observe(t, m, pts, []geom.Point{geom.Pt(4, 4)}, []float64{2})
	prob, err := fit.NewProblem(m, pts, obs)
	if err != nil {
		t.Fatal(err)
	}
	base, err := tr.selectActive(prob, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// selectActive returns tracker-owned scratch; copy before re-selecting.
	base = append([]int(nil), base...)
	if len(base) != 3 {
		t.Fatalf("subset size %d, want ActiveSetLimit=3", len(base))
	}
	for i := 1; i < len(base); i++ {
		if base[i] <= base[i-1] {
			t.Fatalf("subset %v not in ascending order", base)
		}
	}
	// Symmetric ties must resolve downward: nothing distinguishes the
	// users, so only the lowest indices may be selected.
	if !reflect.DeepEqual(base, []int{0, 1, 2}) {
		t.Fatalf("symmetric tie selection = %v, want [0 1 2]", base)
	}
	for trial := 0; trial < 10; trial++ {
		got, err := tr.selectActive(prob, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("selectActive not deterministic: %v then %v", base, got)
		}
	}
	// Zero observation: every stretch fits 0, the active and stale paths
	// both decline, and the fallback must still pick the lowest index.
	zero, err := fit.NewProblem(m, pts, make([]float64, len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := tr.selectActive(zero, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sub, []int{0}) {
		t.Fatalf("zero-observation fallback = %v, want [0]", sub)
	}
}

// TestNewRejectsPresetSearchCoarse: Config.Coarse is the tracker's one route
// to the prestage; a database smuggled in through Search.Coarse is refused
// rather than silently honoured.
func TestNewRejectsPresetSearchCoarse(t *testing.T) {
	m, pts := testModel(t, 30)
	db, err := fingerprint.NewDB(m, pts, fingerprint.CoarseConfig{Enabled: true, GridRes: 8}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Model: m, SamplePoints: pts, NumUsers: 1, N: 50, M: 5,
		Search: fit.Options{Coarse: &fit.Coarse{DB: db}},
	}, 1)
	if err == nil {
		t.Fatal("preset Search.Coarse accepted")
	}
}
