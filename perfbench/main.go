// Command perfbench is the repository's benchmark. One command, given a
// workload and a seed, builds its inputs from the seed, drives the
// library's public API for a fixed measuring time, checks every output, and
// prints one JSON result line:
//
//	bash perfbench/run.sh --workload track --seed 1 --seconds 20 --trace 0
//
// # Workloads
//
// Every workload is sized for the two CPUs of the reference machine from
// one process: worker counts, tenants and client connections are at most
// GOMAXPROCS. All run on one installation, the paper-default deployment and
// 90 sniffed nodes drawn from a fixed seed (see installSeed); --seed draws
// the users, their walks, the liars, the losses and the trackers' seeds.
// Each workload runs a fixed number of rounds per pass from the same
// starting state, so the digest, err_mean and work counts of every pass
// repeat exactly; the measuring time only decides how many passes run.
//
//   - track: one closed-loop caller steps the paper-default plain tracker
//     (3 users on random walks, N=1000, M=10, Workers=GOMAXPROCS) with the
//     robust defense "both" on, over two 50-round worlds per pass. A round
//     is Sniffer.Observe, Adversary.Apply (10% liars, exp.LiarMix), a
//     10%-loss Injector.Apply and Tracker.StepMasked. The exact Gram/NNLS
//     search and its robust second pass do nearly all the work; it is the
//     only workload where the robust, fault and adversary layers run.
//     ROADMAP measure: tracker latency (fluxbench latency).
//   - shard: one closed-loop caller steps a 4×4 shard.Field (halo 2,
//     Workers=GOMAXPROCS) tracking 150 users, 90% of them in one corner
//     tile, with active-set limit 16 and the coarse prestage sharing one
//     fingerprint.Cache. Observations are made before timing. Set-up builds
//     the fingerprint DBs and steps the 45 bootstrap rounds; each pass
//     restores the field after them and times steady rounds, where the
//     corner tile's step is the round (shard.critical_frac near 1).
//     ROADMAP measure: shard users/sec (fluxbench shardbench).
//   - serve: an open loop over loopback HTTP into an in-process
//     serve.Server, one tenant and one client connection per CPU, each
//     tenant a 1-user N=100 plain tracker whose step takes about 0.4 ms.
//     Observe POSTs go out at 400 rounds/s on a fixed schedule, estimate
//     GETs poll beside them, and a checkpoint follows every 25th round.
//     HTTP, JSON, queueing and checkpoints are most of a round. A ladder
//     of higher fixed rates then finds the highest sustainable one.
//     ROADMAP measure: serve step p95 (fluxbench serve).
//
// The quick suite, ROADMAP's fourth measure, spends its CPU in the layers
// these cover: the exact search and the robust, fault and traffic layers
// (track) and the coarse prestage (shard).
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s: the median of three set-ups (installation, inputs, trackers,
//     fields or server and tenants, fingerprint DBs, warm-up rounds).
//   - lat_p50_ms, lat_p90_ms: one round, start to result; for serve, from
//     the round's due time until an estimate read shows it.
//   - user_rounds_per_s and max_rate: user estimates and rounds per second.
//     For track and shard, the closed loop's rate; for serve, the achieved
//     rate of the highest ladder rung that held a 10 ms lat_p90_ms with no
//     429, no growing backlog and an on-time generator.
//   - live_heap_mb: the heap after a forced collection at the end of the
//     timed phase, with the state still referenced.
//
// A round's latency is the lower quartile of what the run's passes
// measured for it; see quietRounds. err_mean (mean estimate-to-truth distance
// over one pass) and failed_frac are printed on every run; the result line
// carries failed_frac as failed/attempted, and err_mean is a per-layer
// metric, because how well a tracker does differs between seeds by more
// than any timing bound.
//
// # Per-layer metrics (--trace 1) and the end-to-end metric each moves
//
//	layer        metrics                                moves (workload)
//	traffic      traffic.observe_ms, traffic.tree.*     lat_p50_ms (track, ~1% of a round)
//	fault        fault.apply_ms, fault.adv.tampered,    lat_p50_ms (track only)
//	             fault.lost
//	fit          fit.search.columns, fit.nnls.*         lat_p50/p90_ms, user_rounds_per_s (track);
//	                                                    per-tile step time (shard); nil (serve)
//	fit robust   fit.robust.*                           lat_p90_ms, err_mean (track); nil elsewhere
//	coarse       shard.new_ms, fingerprint.*,           setup_s, user_rounds_per_s (shard);
//	             fit.coarse.*                           track bypasses it
//	smc          smc.step_ms, smc.{predict,search,      lat_p50_ms (track: search blocks);
//	             update}_ms, smc.step.*                 predict/update bound other gains
//	shard        shard.step_ms, shard.tile.*,           user_rounds_per_s, lat_p90_ms (shard only)
//	             shard.self_ms, shard.critical_frac,
//	             shard.step.handoffs, shard.balance.spills,
//	             shard.imbalance_ratio
//	serve        serve.{observe,estimate,checkpoint}_ms, lat_p90_ms, max_rate (serve only)
//	             serve.checkpoint_bytes, serve.backlog_max,
//	             serve.rejected, serve.step_busy_frac,
//	             serve.rate-<r>.lat_p90_ms
//	go runtime   go.alloc_bytes_per_round,              lat_p90_ms, live_heap_mb (all)
//	             go.gc_pause_ms
//	harness      harness.gen_late_p90_ms,               run validity (serve); tracing cost (all)
//	             harness.trace_overhead_ms
//
// A layer a workload bypasses reports 0 there. Work counts are per pass of
// the workload's fixed rounds. The traced run alternates untraced and
// traced passes: the benchmark's own spans wrap every call into a layer's
// public function, the existing obs.Metrics and obs.Trace instruments are
// bound for the split inside a step, and harness.trace_overhead_ms is the
// traced minus the untraced lat_p50_ms. Spans are written to
// <out>/trace-<workload>-seed<n>.jsonl when the run ends.
//
// # Output checks
//
// Every estimate must be finite and inside the field; every pass of a run
// must reproduce the first pass's digest and work counts; a run of a seed
// must reproduce the digest and counts an earlier run of the same binary
// and seed recorded under <out>; serve tenants must match an in-process
// replay of their accepted stream, and the last checkpoint must restore
// into a fresh tenant that then reproduces the final estimate. A failed
// check counts in failed_frac and makes the command exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload = flag.String("workload", "", "workload to run: track, shard or serve")
		seed     = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 20, "measuring time in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for trace files and recorded counts")
	)
	flag.Parse()
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	// Collect only near a fixed heap limit. At the default pacing the
	// workloads' small live heaps (1 to 20 MB) meant a collection every few
	// rounds, at points set by whatever else the process happened to hold,
	// and the serve ladder's answer swung between runs by 4×. Allocation
	// still shows, in go.alloc_bytes_per_round.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(gcHeapLimit)
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1}
	var r *run
	var err error
	switch *workload {
	case "track":
		r, err = runTrack(cfg)
	case "shard":
		r, err = runShard(cfg)
	case "serve":
		r, err = runServe(cfg)
	default:
		return fmt.Errorf("unknown --workload %q (want track, shard or serve)", *workload)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	r.compareRecorded(*out, *seed, cfg.traced)
	if cfg.traced {
		if err := r.spans.write(*out, *workload, *seed); err != nil {
			return err
		}
	}
	r.print()
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.endToEnd(),
	}
	if cfg.traced {
		res.Metrics = r.perLayer()
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return fmt.Errorf("%s: %d failed operation(s) or check(s)", *workload, r.failed)
	}
	return nil
}

// gcHeapLimit is the heap size at which the collector runs.
const gcHeapLimit = 256 << 20

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
}

// workers is the worker, tenant and connection count: every workload is
// sized for the machine's CPUs from one process.
func workers() int { return runtime.GOMAXPROCS(0) }

// result is the last line the command prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is everything one workload run measured.
type run struct {
	workload string
	rounds   int // fixed rounds per pass
	setupS   []float64
	// lat and latTrace hold the round latencies (ms) of the untraced and
	// the traced passes, one slice per pass. See quietRounds for how a
	// timing is taken from them.
	lat, latTrace [][]float64
	users         int     // user estimates a round produces
	maxRate       float64 // rounds/s; closed-loop workloads set it from lat
	userRate      float64 // user estimates/s; likewise
	errMean       float64 // mean estimate-to-truth distance over one pass
	scored        int     // estimates err_mean averages
	heapMB        float64
	digest        uint64

	attempted, failed int
	problems          []string
	pastEdge          int // estimates past the field's edge by rounding alone

	counts map[string]uint64  // deterministic work counts per pass
	layers map[string]float64 // per-layer metrics of the traced passes
	spans  *spans
}

func newRun(workload string, rounds, users int, traced bool) *run {
	r := &run{workload: workload, rounds: rounds, users: users, counts: map[string]uint64{}, layers: map[string]float64{}}
	if traced {
		r.spans = newSpans()
	}
	return r
}

// check counts one output check, failing it when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail records a failed operation or check that was already attempted.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// addRound records one round's latency in the current pass of its kind.
func (r *run) addRound(traced bool, latMs float64) {
	passes := &r.lat
	if traced {
		passes = &r.latTrace
	}
	last := len(*passes) - 1
	(*passes)[last] = append((*passes)[last], latMs)
}

// quietRounds gives each round of a pass the lower quartile of the
// latencies the passes measured for it. Every pass does the same rounds, so
// a round's latencies differ only by what the machine did meanwhile: on a
// shared virtual machine, seconds-long spells in which other guests take
// the processors (steal time) slow every round they cover, tripling a
// sub-millisecond p90. Such interference only ever adds time, while a
// change to the program moves a round in every pass. Passes of unequal
// length (a serve pass that lost rounds) fall back to all rounds pooled.
func quietRounds(passes [][]float64) []float64 {
	var full [][]float64
	for _, p := range passes {
		if len(p) > 0 {
			full = append(full, p)
		}
	}
	if len(full) == 0 {
		return nil
	}
	n := len(full[0])
	for _, p := range full {
		if len(p) != n {
			var pooled []float64
			for _, q := range full {
				pooled = append(pooled, q...)
			}
			return pooled
		}
	}
	out := make([]float64, n)
	col := make([]float64, len(full))
	for i := range out {
		for j, p := range full {
			col[j] = p[i]
		}
		out[i] = percentile(col, 25)
	}
	return out
}

// closedLoopRates sets max_rate and user_rounds_per_s for a workload whose
// single caller steps rounds back to back.
func (r *run) closedLoopRates() {
	r.maxRate = ratio(1e3, mean(quietRounds(r.lat)))
	r.userRate = r.maxRate * float64(r.users)
}

// timedRounds counts the rounds in passes.
func timedRounds(passes [][]float64) int {
	n := 0
	for _, p := range passes {
		n += len(p)
	}
	return n
}

// endToEnd is the --trace 0 metric set.
func (r *run) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":           {median(r.setupS), "s"},
		"lat_p50_ms":        {percentile(quietRounds(r.lat), 50), "ms"},
		"lat_p90_ms":        {percentile(quietRounds(r.lat), 90), "ms"},
		"live_heap_mb":      {r.heapMB, "MB"},
		"max_rate":          {r.maxRate, "rounds/s"},
		"user_rounds_per_s": {r.userRate, "1/s"},
	}
}

// traceOverhead is the traced minus the untraced lat_p50_ms.
func (r *run) traceOverhead() float64 {
	return percentile(quietRounds(r.latTrace), 50) - percentile(quietRounds(r.lat), 50)
}

// layerUnits lists every per-layer metric with its unit; each workload
// reports all of them, 0 where it bypasses the layer.
var layerUnits = map[string]string{
	"traffic.observe_ms":  "ms",
	"traffic.tree.builds": "count",
	"traffic.tree.hits":   "count",

	"fault.apply_ms":     "ms",
	"fault.adv.tampered": "count",
	"fault.lost":         "count",

	"fit.search.columns":          "count",
	"fit.nnls.solves":             "count",
	"fit.nnls.iters":              "count",
	"fit.nnls.iters_per_solve":    "ratio",
	"fit.robust.passes":           "count",
	"fit.robust.flagged":          "count",
	"fit.robust.applied":          "count",
	"fit.robust.applied_per_pass": "ratio",

	"shard.new_ms":             "ms",
	"fingerprint.db.builds":    "count",
	"fingerprint.cache.hits":   "count",
	"fit.coarse.shortlist":     "count",
	"fit.coarse.knn_probes":    "count",
	"fit.coarse.exact_avoided": "count",
	"fit.coarse.avoided_frac":  "ratio",

	"smc.step_ms":             "ms",
	"smc.predict_ms":          "ms",
	"smc.search_ms":           "ms",
	"smc.update_ms":           "ms",
	"smc.step.candidates":     "count",
	"smc.step.searched_users": "count",
	"smc.step.active_users":   "count",

	"shard.step_ms":          "ms",
	"shard.tile.step_ms_sum": "ms",
	"shard.tile.step_ms_max": "ms",
	"shard.tile.queue_ms":    "ms",
	"shard.self_ms":          "ms",
	"shard.critical_frac":    "ratio",
	"shard.step.handoffs":    "count",
	"shard.balance.spills":   "count",
	"shard.imbalance_ratio":  "ratio",

	"serve.observe_ms":       "ms",
	"serve.estimate_ms":      "ms",
	"serve.checkpoint_ms":    "ms",
	"serve.checkpoint_bytes": "bytes",
	"serve.backlog_max":      "count",
	"serve.rejected":         "count",
	"serve.step_busy_frac":   "ratio",

	"go.alloc_bytes_per_round": "bytes",
	"go.gc_pause_ms":           "ms",

	"err_mean": "field",

	"harness.gen_late_p90_ms":   "ms",
	"harness.trace_overhead_ms": "ms",
}

func init() {
	for _, rate := range ladderRates {
		layerUnits[ladderMetric(rate)] = "ms"
	}
}

// perLayer is the --trace 1 metric set: every per-layer metric, with the
// work counts taken from the run's per-pass counts.
func (r *run) perLayer() map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		v, ok := r.layers[name]
		switch {
		case name == "err_mean":
			v = r.errMean
		case !ok:
			v = float64(r.counts[name])
		}
		m[name] = metric{v, unit}
	}
	return m
}

// print writes the human-readable report: every end-to-end metric with its
// unit and sample count, the work counts, the per-layer metrics of a traced
// run, and any failed check.
func (r *run) print() {
	fmt.Printf("perfbench %s: %d rounds per pass, %d untraced passes (%d rounds)", r.workload, r.rounds, len(r.lat), timedRounds(r.lat))
	if r.spans != nil {
		fmt.Printf(", %d traced (%d rounds)", len(r.latTrace), timedRounds(r.latTrace))
	}
	fmt.Printf(", %d set-ups\n", len(r.setupS))
	e2e := r.endToEnd()
	for _, name := range sortedKeys(e2e) {
		fmt.Printf("  %-28s %14.6g %s\n", name, e2e[name].Value, e2e[name].Unit)
	}
	fmt.Printf("  %-28s %14.6g field (over %d estimates of a pass)\n", "err_mean", r.errMean, r.scored)
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-28s %14.6g (%d/%d)\n", "failed_frac", frac, r.failed, r.attempted)
	fmt.Printf("  %-28s %14s\n", "digest", fmt.Sprintf("%016x", r.digest))
	if r.pastEdge > 0 {
		fmt.Printf("  %-28s %14d\n", "estimates past edge by rounding", r.pastEdge)
	}
	for _, name := range sortedKeys(r.counts) {
		fmt.Printf("  count %-22s %14d\n", name, r.counts[name])
	}
	if st := r.spans.stats(); st != nil {
		fmt.Printf("  %-28s %8s %12s %12s\n", "span", "count", "mean ms", "self ms")
		for _, name := range sortedKeys(st) {
			fmt.Printf("  %-28s %8d %12.4f %12.4f\n", name, st[name].count, st[name].meanMs(), st[name].selfMeanMs())
		}
		layers := r.perLayer()
		for _, name := range sortedKeys(layers) {
			fmt.Printf("  layer %-30s %14.6g %s\n", name, layers[name].Value, layers[name].Unit)
		}
	}
	for _, p := range r.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ladderMetric names the per-layer p90 of one serve ladder rung.
func ladderMetric(rate int) string { return fmt.Sprintf("serve.rate-%d.lat_p90_ms", rate) }
