package main

import (
	"runtime"
	"time"

	"fluxtrack/internal/core"
	"fluxtrack/internal/exp"
	"fluxtrack/internal/fault"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/traffic"
)

// The track workload: the paper's attack at its default operating point,
// under Byzantine sensors and report loss, with the robust defense on. A
// round runs observe, tamper, drop and step; its latency spans all four.
// A pass tracks several independent worlds (episodes) one after another, so
// a run's figures average over deployments and walks instead of resting on
// one world's luck.
const (
	trackUsers    = 3
	trackN        = 1000
	trackM        = 10
	trackSniffed  = 90
	trackWalk     = 4   // largest step of a user per round (the tracker's VMax is 5)
	trackLiars    = 0.1 // exp.LiarMix fraction of Byzantine sensors
	trackLoss     = 0.1 // per-report loss probability
	trackEpisodes = 2   // worlds per pass
	trackRounds   = 50  // rounds per episode
	trackWarm     = 2   // warm-up rounds per episode set-up, on a throwaway tracker
)

// trackWorld is one episode's set-up: the shared installation, every
// round's true user positions, and the seeds of the tracker, adversary and
// fault injector.
type trackWorld struct {
	sc      *core.Scenario
	sn      *core.Sniffer
	users   [][]traffic.User
	truth   [][]geom.Point
	seeds   [3]uint64
	setupMx *obs.Metrics // traffic counters of the set-up, traced runs only
	last    *trackPass   // the latest pass, kept live for live_heap_mb
}

func runTrack(cfg runConfig) (*run, error) {
	r := newRun("track", trackEpisodes*trackRounds, trackUsers, cfg.traced)
	worlds, setupS, err := timeSetup(func() ([]*trackWorld, error) {
		sc, sn, err := installation(trackSniffed)
		if err != nil {
			return nil, err
		}
		var setupMx *obs.Metrics
		if cfg.traced {
			setupMx = obs.New(0)
			sc.SetMetrics(setupMx)
		}
		src := rng.New(cfg.seed)
		worlds := make([]*trackWorld, trackEpisodes)
		for i := range worlds {
			w, err := newTrackWorld(sc, sn, src.Uint64(), setupMx)
			if err != nil {
				return nil, err
			}
			worlds[i] = w
		}
		return worlds, nil
	}, func([]*trackWorld) {})
	if err != nil {
		return nil, err
	}
	r.setupS = setupS
	if cfg.traced {
		r.counts["traffic.tree.builds"] = counterDelta(obs.Snapshot{}, worlds[0].setupMx.Snapshot())["traffic.tree.builds"]
	}

	mem0 := readMem()
	err = r.runPasses(cfg.seconds, cfg.traced, func(traced bool) (passResult, error) {
		dig := newDigester()
		counts := map[string]uint64{}
		var errs []float64
		for i, w := range worlds {
			if err := w.pass(r, traced, i*trackRounds, dig, counts, &errs); err != nil {
				return passResult{}, err
			}
		}
		if r.scored == 0 {
			r.errMean, r.scored = mean(errs), len(errs)
		}
		return passResult{digest: dig.sum(), counts: counts}, nil
	})
	if err != nil {
		return nil, err
	}
	r.goLayers(mem0, readMem(), timedRounds(r.lat)+timedRounds(r.latTrace))
	r.heapMB = liveHeap()
	runtime.KeepAlive(worlds)
	r.closedLoopRates()
	r.trackLayers()
	return r, nil
}

// newTrackWorld lays out one episode on the shared installation: walks,
// stretches and seeds drawn from seed. setupMx, when set, is the registry
// the scenario reports its set-up traffic counters to.
func newTrackWorld(sc *core.Scenario, sn *core.Sniffer, seed uint64, setupMx *obs.Metrics) (*trackWorld, error) {
	src := rng.New(seed)
	w := &trackWorld{sc: sc, sn: sn, setupMx: setupMx}
	var err error
	field := sc.Field()
	walks := make([]mobility.Trajectory, trackUsers)
	stretches := make([]float64, trackUsers)
	for i := range walks {
		if walks[i], err = mobility.NewRandomWalk(field, src.InRect(field), trackWalk, trackRounds+1, src); err != nil {
			return nil, err
		}
		stretches[i] = src.Uniform(1, 3)
	}
	for r := 0; r < trackRounds; r++ {
		us := make([]traffic.User, trackUsers)
		pts := make([]geom.Point, trackUsers)
		for i, walk := range walks {
			pts[i] = field.Clamp(walk.At(float64(r + 1)))
			us[i] = traffic.User{Pos: pts[i], Stretch: stretches[i], Active: true}
		}
		w.users = append(w.users, us)
		w.truth = append(w.truth, pts)
	}
	for i := range w.seeds {
		w.seeds[i] = src.Uint64()
	}
	// Warm-up: every round's collection trees are built here, so timed
	// observe calls all hit the simulator's tree cache, and a few steps of a
	// throwaway tracker fault in the search's code and memory.
	for _, us := range w.users {
		if _, err := w.sn.Observe(us, 0, nil); err != nil {
			return nil, err
		}
	}
	p, err := w.newPass(nil, nil)
	if err != nil {
		return nil, err
	}
	for r := 0; r < trackWarm; r++ {
		if _, _, err := p.round(r, nil, -1); err != nil {
			return nil, err
		}
	}
	sc.SetMetrics(setupMx)
	return w, nil
}

// trackPass is one fresh tracker with its adversary and fault injector.
type trackPass struct {
	w       *trackWorld
	tracker core.StepTracker
	adv     *fault.Adversary
	inj     *fault.Injector
}

func (w *trackWorld) newPass(m *obs.Metrics, tr *obs.Trace) (*trackPass, error) {
	w.sc.SetMetrics(m)
	tracker, err := w.sn.NewTracker(trackUsers, core.TrackerConfig{
		N: trackN, M: trackM, Workers: workers(),
		Search:  fit.Options{Robust: fit.RobustConfig{Mode: fit.RobustBoth}},
		Metrics: m, Trace: tr,
	}, w.seeds[0])
	if err != nil {
		return nil, err
	}
	adv, err := w.sn.NewAdversary(exp.LiarMix(trackLiars), w.seeds[1])
	if err != nil {
		return nil, err
	}
	adv.SetMetrics(m)
	inj, err := w.sn.NewFaultInjector(fault.Config{LossProb: trackLoss}, w.seeds[2])
	if err != nil {
		return nil, err
	}
	inj.SetMetrics(m)
	return &trackPass{w: w, tracker: tracker, adv: adv, inj: inj}, nil
}

// round runs round r: observe, tamper, drop, step. With a recorder it
// wraps each call in a span under parent and returns the step span's
// index.
func (p *trackPass) round(r int, sp *spans, parent int) ([]geom.Point, int, error) {
	t0 := time.Now()
	readings, err := p.w.sn.Observe(p.w.users[r], 0, nil)
	t1 := time.Now()
	sp.add("traffic.observe", r, parent, t0, t1)
	if err != nil {
		return nil, -1, err
	}
	tampered, err := p.adv.Apply(readings)
	t2 := time.Now()
	sp.add("fault.adversary", r, parent, t1, t2)
	if err != nil {
		return nil, -1, err
	}
	degraded, err := p.inj.Apply(tampered)
	t3 := time.Now()
	sp.add("fault.inject", r, parent, t2, t3)
	if err != nil {
		return nil, -1, err
	}
	res, err := p.tracker.StepMasked(float64(r+1), degraded.Readings, degraded.Present, degraded.Age)
	step := sp.add("smc.step", r, parent, t3, time.Now())
	if err != nil {
		return nil, -1, err
	}
	return means(res), step, nil
}

// pass tracks the world's rounds with a fresh tracker, numbering them from
// base in the digest and the spans, and adds its work counts to counts.
func (w *trackWorld) pass(r *run, traced bool, base int, dig *digester, counts map[string]uint64, errs *[]float64) error {
	var m *obs.Metrics
	var tr *obs.Trace
	var sp *spans
	if traced {
		m, tr, sp = obs.New(0), obs.NewTrace(trackRounds+16), r.spans
	}
	p, err := w.newPass(m, tr)
	if err != nil {
		return err
	}
	w.last = p
	scored := len(*errs)
	steps := make([]int, trackRounds)
	field := w.sc.Field()
	for i := 0; i < trackRounds; i++ {
		r.attempted++
		start := time.Now()
		top := sp.begin("round", base+i, -1)
		est, step, err := p.round(i, sp, top)
		sp.finish(top)
		lat := ms(time.Since(start))
		if err != nil {
			r.fail("round %d: %v", base+i, err)
			continue
		}
		r.addRound(traced, lat)
		steps[i] = step
		dig.round(base+i, est)
		r.checkEstimates(base+i, est, field)
		*errs = append(*errs, matchErrors(est, w.truth[i])...)
	}
	w.sc.SetMetrics(nil)
	r.check(len(*errs)-scored == trackRounds*trackUsers, "episode scored %d estimates, want %d",
		len(*errs)-scored, trackRounds*trackUsers)
	solves, iters := p.tracker.WorkTotals()
	counts["work.solves"] += solves
	counts["work.iters"] += iters
	counts["fault.adv.compromised"] += uint64(p.adv.NumCompromised())
	if traced {
		for k, v := range counterDelta(obs.Snapshot{}, m.Snapshot()) {
			counts[k] += v
		}
		addStepPhases(sp, tr.Snapshot(), steps, base)
	}
	return nil
}

// addStepPhases turns the tracker's own per-round obs.Span into predict,
// search and update children of the benchmark's span around that step.
func addStepPhases(sp *spans, trace []obs.Span, steps []int, base int) {
	for _, s := range trace {
		if s.Tile >= 0 || s.Step < 0 || s.Step >= len(steps) || steps[s.Step] < 0 {
			continue
		}
		parent := steps[s.Step]
		sp.mu.Lock()
		start := sp.t0.Add(time.Duration(sp.list[parent].Start))
		sp.mu.Unlock()
		addPhases(sp, s, base+s.Step, parent, start)
	}
}

// addPhases records a tracker step's predict, search and update phases,
// laid end to end from the step's start under its span: the tracker runs
// them in that order, and whatever else the step does is its self time.
func addPhases(sp *spans, s obs.Span, round, parent int, start time.Time) {
	predictEnd := start.Add(time.Duration(s.PredictNs))
	searchEnd := predictEnd.Add(time.Duration(s.SearchNs))
	sp.add("smc.predict", round, parent, start, predictEnd)
	sp.add("smc.search", round, parent, predictEnd, searchEnd)
	sp.add("smc.update", round, parent, searchEnd, searchEnd.Add(time.Duration(s.UpdateNs)))
}

// trackLayers fills the per-layer timings of a traced track run.
func (r *run) trackLayers() {
	st := r.spans.stats()
	if st == nil {
		return
	}
	get := func(name string) float64 {
		if s := st[name]; s != nil {
			return s.meanMs()
		}
		return 0
	}
	r.layers["traffic.observe_ms"] = get("traffic.observe")
	r.layers["fault.apply_ms"] = get("fault.adversary") + get("fault.inject")
	r.layers["smc.step_ms"] = get("smc.step")
	r.layers["smc.predict_ms"] = get("smc.predict")
	r.layers["smc.search_ms"] = get("smc.search")
	r.layers["smc.update_ms"] = get("smc.update")
	r.fitRatios()
	r.layers["harness.trace_overhead_ms"] = r.traceOverhead()
	if st["round"] != nil && st["round"].count != timedRounds(r.latTrace) {
		r.check(false, "%d round spans for %d traced rounds", st["round"].count, timedRounds(r.latTrace))
	}
}

// fitRatios derives the fit-layer efficiency ratios from the pass counts.
func (r *run) fitRatios() {
	c := func(name string) float64 { return float64(r.counts[name]) }
	r.layers["fit.nnls.iters_per_solve"] = ratio(c("fit.nnls.iters"), c("fit.nnls.solves"))
	r.layers["fit.robust.applied_per_pass"] = ratio(c("fit.robust.applied"), c("fit.robust.passes"))
	r.layers["fit.coarse.avoided_frac"] = ratio(c("fit.coarse.exact_avoided"), c("fit.coarse.knn_probes"))
}
