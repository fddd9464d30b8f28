package main

import (
	"runtime"
	"time"

	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/shard"
	"fluxtrack/internal/smc"
	"fluxtrack/internal/traffic"
)

// The shard workload: a 4×4 tiled field tracking a few hundred users, most
// of them packed into one corner, with the coarse prestage shortlisting
// candidates and an active-set cap keeping each tile's search small. A
// round is one Field.Step over a precomputed observation.
const (
	shardUsers   = 150
	shardSkew    = 0.9 // share of users in the hot corner
	shardN       = 200
	shardM       = 10
	shardSniffed = 90
	shardHalo    = 2
	shardActive  = 16  // users searched per tile per round
	shardRounds  = 100 // rounds per pass
	// shardWarm rounds run once per set-up, until every user has been
	// bootstrapped: those rounds cost ten times a steady round, and where
	// the steady state begins varies with the seed. Each pass restores the
	// field's state after them and times steady rounds only.
	shardWarm = 45
)

var shardGrid = shard.Grid{Rows: 4, Cols: 4, Halo: shardHalo}

// shardWorld is the set-up a pass starts from: the scenario, the sniffer,
// every round's observation and true positions, the users' starting
// positions, and the fingerprint cache the first field filled.
type shardWorld struct {
	model    *fluxmodel.Model
	points   []geom.Point // sniffed node positions
	field    geom.Rect
	obs      [][]float64 // shardWarm + shardRounds rounds
	truth    [][]geom.Point
	starts   []geom.Point
	seed     uint64
	cache    *fingerprint.Cache
	steady   shard.FieldState // the field after the warm-up rounds
	newMs    float64          // construction of the first field, fingerprint-DB builds included
	setupMx  *obs.Metrics     // counters of the set-up, traced runs only
	last     *shard.Field     // the latest pass's field, kept live for live_heap_mb
	imbRatio float64
}

func runShard(cfg runConfig) (*run, error) {
	r := newRun("shard", shardRounds, shardUsers, cfg.traced)
	w, setupS, err := timeSetup(func() (*shardWorld, error) { return newShardWorld(cfg) },
		func(*shardWorld) {})
	if err != nil {
		return nil, err
	}
	r.setupS = setupS
	if cfg.traced {
		setup := counterDelta(obs.Snapshot{}, w.setupMx.Snapshot())
		r.counts["fingerprint.db.builds"] = setup["fingerprint.db.builds"]
		r.layers["shard.new_ms"] = w.newMs
	}

	mem0 := readMem()
	err = r.runPasses(cfg.seconds, cfg.traced, func(traced bool) (passResult, error) {
		return w.pass(r, traced)
	})
	if err != nil {
		return nil, err
	}
	r.goLayers(mem0, readMem(), timedRounds(r.lat)+timedRounds(r.latTrace))
	r.heapMB = liveHeap()
	runtime.KeepAlive(w)
	r.closedLoopRates()
	r.layers["shard.imbalance_ratio"] = w.imbRatio
	r.shardLayers()
	return r, nil
}

func newShardWorld(cfg runConfig) (*shardWorld, error) {
	sc, sn, err := installation(shardSniffed)
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.seed)
	// The world keeps the flux model and the sniffed positions, not the
	// scenario: its traffic simulator caches a collection tree per sink the
	// walks visited, which would make live_heap_mb depend on the seed.
	w := &shardWorld{model: sc.Model(), points: sn.Points(), field: sc.Field(), cache: fingerprint.NewCache(0)}
	if cfg.traced {
		w.setupMx = obs.New(0)
	}
	field := sc.Field()
	trajs, err := skewedTrajectories(field, src)
	if err != nil {
		return nil, err
	}
	stretches := make([]float64, shardUsers)
	w.starts = make([]geom.Point, shardUsers)
	for i := range stretches {
		stretches[i] = src.Uniform(1, 3)
		w.starts[i] = field.Clamp(trajs[i].At(0))
	}
	us := make([]traffic.User, shardUsers)
	for r := 0; r < shardWarm+shardRounds; r++ {
		pts := make([]geom.Point, shardUsers)
		for i, tr := range trajs {
			pts[i] = field.Clamp(tr.At(float64(r + 1)))
			us[i] = traffic.User{Pos: pts[i], Stretch: stretches[i], Active: true}
		}
		o, err := sn.Observe(us, 0, nil)
		if err != nil {
			return nil, err
		}
		w.obs = append(w.obs, o)
		w.truth = append(w.truth, pts)
	}
	w.seed = src.Uint64()

	// The first field builds every tile's fingerprint database into the
	// shared cache; later fields hit it. It steps the warm-up rounds, and
	// every pass starts from the state they leave.
	start := time.Now()
	f, err := w.newField(workers(), w.setupMx, nil)
	if err != nil {
		return nil, err
	}
	w.newMs = ms(time.Since(start))
	for r := 0; r < shardWarm; r++ {
		if _, err := f.Step(float64(r+1), w.obs[r]); err != nil {
			return nil, err
		}
	}
	w.steady = f.ExportState()
	return w, nil
}

// skewedTrajectories lays out the 90/10 hot-corner population: the first
// shardSkew share of users wander inside a small patch at the field's low
// corner, all within one tile, for the whole run; the rest walk over the
// whole field and cross seams. The load shape is the same every round, so
// a round's cost does not drift through a pass.
func skewedTrajectories(field geom.Rect, src *rng.Source) ([]mobility.Trajectory, error) {
	corner := geom.NewRect(field.Min, geom.Pt(field.Min.X+0.2*field.Width(), field.Min.Y+0.2*field.Height()))
	hot := int(shardSkew * shardUsers)
	out := make([]mobility.Trajectory, shardUsers)
	for i := range out {
		area, step := field, 2.0
		if i < hot {
			area, step = corner, 0.5
		}
		walk, err := mobility.NewRandomWalk(area, src.InRect(area), step, shardWarm+shardRounds+1, src)
		if err != nil {
			return nil, err
		}
		out[i] = walk
	}
	return out, nil
}

// newField builds the field: tiles step shard.Config.Workers = GOMAXPROCS
// at a time, and each tile's tracker runs its round on tileWorkers
// goroutines. Passes use one: nesting the search's fan-out inside the tile
// fan-out made a pass's median swing by ±15% from pass to pass on a 2-CPU
// machine, against ±4% without, for no faster a round. Output does not
// depend on either count.
func (w *shardWorld) newField(tileWorkers int, m *obs.Metrics, tr *obs.Trace) (*shard.Field, error) {
	return shard.New(shard.Config{
		Model: w.model, SamplePoints: w.points, NumUsers: shardUsers,
		Grid: shardGrid,
		Tracker: smc.Config{
			N: shardN, M: shardM, Workers: tileWorkers, ActiveSetLimit: shardActive,
			Coarse: fingerprint.CoarseConfig{Enabled: true},
		},
		InitialPositions: w.starts,
		Workers:          workers(),
		Cache:            w.cache,
		Metrics:          m, Trace: tr,
	}, w.seed)
}

func (w *shardWorld) pass(r *run, traced bool) (passResult, error) {
	var m *obs.Metrics
	var tr *obs.Trace
	var sp *spans
	if traced {
		m, sp = obs.New(0), r.spans
		tr = obs.NewTrace(shardRounds * (2*shardGrid.Tiles() + 1))
	}
	f, err := w.newField(1, m, tr)
	if err != nil {
		return passResult{}, err
	}
	if err := f.RestoreState(w.steady); err != nil {
		return passResult{}, err
	}
	handoffs0, spills0 := f.Handoffs(), f.Spills()
	w.last = f
	dig := newDigester()
	var errs []float64
	steps := make([]int, shardRounds)
	field := w.field
	for i := 0; i < shardRounds; i++ {
		r.attempted++
		start := time.Now()
		res, err := f.Step(float64(shardWarm+i+1), w.obs[shardWarm+i])
		end := time.Now()
		steps[i] = sp.add("shard.step", i, -1, start, end)
		lat := ms(end.Sub(start))
		if err != nil {
			r.fail("round %d: %v", i, err)
			continue
		}
		r.addRound(traced, lat)
		est := means(res)
		dig.round(i, est)
		r.checkEstimates(i, est, field)
		errs = append(errs, matchErrors(est, w.truth[shardWarm+i])...)
	}
	if r.scored == 0 {
		r.errMean, r.scored = mean(errs), len(errs)
	}
	r.check(len(errs) == shardRounds*shardUsers, "pass scored %d estimates, want %d", len(errs), shardRounds*shardUsers)
	maxUsers, meanUsers := f.Imbalance()
	w.imbRatio = ratio(float64(maxUsers), meanUsers)
	solves, iters := f.WorkTotals()
	counts := map[string]uint64{
		"work.solves": solves, "work.iters": iters,
		"shard.step.handoffs":  uint64(f.Handoffs() - handoffs0),
		"shard.balance.spills": uint64(f.Spills() - spills0),
		"shard.max_tile_users": uint64(maxUsers),
	}
	if traced {
		for k, v := range counterDelta(obs.Snapshot{}, m.Snapshot()) {
			if k != "shard.step.handoffs" && k != "shard.balance.spills" {
				counts[k] = v
			}
		}
		addTileSpans(sp, tr.Snapshot(), steps, shardWarm)
	}
	return passResult{digest: dig.sum(), counts: counts}, nil
}

// addTileSpans places the coordinator's per-tile obs.Span under the
// benchmark's span around each Field.Step, at the tile's queue offset from
// the step's start, and lays each tile tracker's predict, search and update
// phases end to end inside its tile span. The trace holds, per round, the
// tile trackers' spans (Tile -1, written while the tiles step) followed by
// the coordinator's tile spans (written after the merge); a tracker span
// belongs to the tile with its seed. A restored field numbers its rounds
// from base.
func addTileSpans(sp *spans, trace []obs.Span, steps []int, base int) {
	var pending []obs.Span
	type tileSpan struct {
		idx   int
		start time.Time
	}
	for k := 0; k < len(trace); {
		if trace[k].Tile < 0 {
			pending = append(pending, trace[k])
			k++
			continue
		}
		round := trace[k].Step - base
		tiles := map[uint64]tileSpan{}
		for ; k < len(trace) && trace[k].Tile >= 0 && trace[k].Step-base == round; k++ {
			s := trace[k]
			if round < 0 || round >= len(steps) || steps[round] < 0 {
				continue
			}
			parent := steps[round]
			sp.mu.Lock()
			stepStart := sp.t0.Add(time.Duration(sp.list[parent].Start))
			sp.mu.Unlock()
			start := stepStart.Add(time.Duration(s.QueueNs))
			idx := sp.add("shard.tile", round, parent, start, start.Add(time.Duration(s.WallNs)))
			tiles[s.Seed] = tileSpan{idx, start}
		}
		for _, s := range pending {
			ts, ok := tiles[s.Seed]
			if !ok {
				continue
			}
			step := sp.add("smc.step", round, ts.idx, ts.start, ts.start.Add(time.Duration(s.WallNs)))
			addPhases(sp, s, round, step, ts.start)
		}
		pending = pending[:0]
	}
}

// shardLayers fills the per-layer timings of a traced shard run, per round.
func (r *run) shardLayers() {
	st := r.spans.stats()
	steps := st["shard.step"]
	if steps == nil {
		return
	}
	perRound := func(name string) float64 {
		if s := st[name]; s != nil {
			return ratio(s.totalMs, float64(steps.count))
		}
		return 0
	}
	r.layers["shard.step_ms"] = steps.meanMs()
	r.layers["shard.self_ms"] = steps.selfMeanMs()
	r.layers["shard.tile.step_ms_sum"] = perRound("shard.tile")
	r.layers["smc.step_ms"] = perRound("smc.step")
	r.layers["smc.predict_ms"] = perRound("smc.predict")
	r.layers["smc.search_ms"] = perRound("smc.search")
	r.layers["smc.update_ms"] = perRound("smc.update")

	// The slowest tile of each step, its share of the step, and how long
	// each tile waited after the step began.
	r.spans.mu.Lock()
	slowest := map[int]float64{} // by the step span's index
	var queue, maxes, crit []float64
	for _, s := range r.spans.list {
		if s.Name == "shard.tile" {
			slowest[s.Parent] = max(slowest[s.Parent], float64(s.End-s.Start)/1e6)
			queue = append(queue, float64(s.Start-r.spans.list[s.Parent].Start)/1e6)
		}
	}
	for i, d := range slowest {
		step := r.spans.list[i]
		maxes = append(maxes, d)
		crit = append(crit, ratio(d, float64(step.End-step.Start)/1e6))
	}
	r.spans.mu.Unlock()
	r.layers["shard.tile.step_ms_max"] = mean(maxes)
	r.layers["shard.tile.queue_ms"] = mean(queue)
	r.layers["shard.critical_frac"] = mean(crit)
	r.fitRatios()
	r.layers["harness.trace_overhead_ms"] = r.traceOverhead()
}
