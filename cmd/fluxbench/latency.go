package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"fluxtrack/internal/core"
	"fluxtrack/internal/exp"
	"fluxtrack/internal/fingerprint"
	"fluxtrack/internal/fit"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/stats"
	"fluxtrack/internal/traffic"
)

// latencyReport is the schema written by `fluxbench latency -json`: the
// per-Step wall-time distribution of the tracker at each (tile grid, worker
// count) pair, over an identical precomputed observation stream. Every run
// goes through the sharded coordinator — a 1x1 grid is byte-identical to the
// plain tracker — so each entry also carries the per-shard queue/step
// breakdown recorded by the coordinator's tile spans.
type latencyReport struct {
	Users      int            `json:"users"`
	TrackN     int            `json:"track_n"`
	Samples    int            `json:"sample_nodes"`
	Rounds     int            `json:"rounds"`
	Repeats    int            `json:"repeats"`
	Seed       uint64         `json:"seed"`
	Halo       float64        `json:"halo,omitempty"`
	CoarseTopK int            `json:"coarse_topk,omitempty"`
	CoarseGrid int            `json:"coarse_grid,omitempty"`
	Liars      float64        `json:"liars,omitempty"`  // Byzantine sensor fraction, 0 = all honest
	Robust     string         `json:"robust,omitempty"` // robust-fit defense mode, "" = off
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Entries    []latencyEntry `json:"entries"`
}

type latencyEntry struct {
	Shards  string  `json:"shards"`
	Rows    int     `json:"grid_rows"`
	Cols    int     `json:"grid_cols"`
	Tiles   int     `json:"tiles"`
	Workers int     `json:"workers"`
	Steps   int     `json:"steps"`
	P50ms   float64 `json:"p50_ms"`
	P95ms   float64 `json:"p95_ms"`
	MeanMs  float64 `json:"mean_ms"`
	TotalS  float64 `json:"total_seconds"`
	Speedup float64 `json:"speedup_vs_serial"` // same-grid serial mean / this mean
	// UsersPerSec is tracked users divided by the mean step time — the
	// throughput figure the shard sweep (fluxbench shardbench) reports.
	UsersPerSec float64 `json:"users_per_sec"`
	// ImbalanceMax/ImbalanceMean report the final round's tile-load shape:
	// the largest per-tile owned-user count against the users/tiles ideal.
	ImbalanceMax  int     `json:"imbalance_max"`
	ImbalanceMean float64 `json:"imbalance_mean"`
	// PerShard breaks the step down by tile: how long each tile's
	// observations queued before its step ran (dispatch to tile-step start)
	// and how long the tile's own step took.
	PerShard []shardLatency `json:"per_shard,omitempty"`
}

// shardLatency is one tile's latency distribution within an entry.
type shardLatency struct {
	Tile       int     `json:"tile"`
	Steps      int     `json:"steps"`
	QueueP50ms float64 `json:"queue_p50_ms"`
	QueueP95ms float64 `json:"queue_p95_ms"`
	StepP50ms  float64 `json:"step_p50_ms"`
	StepP95ms  float64 `json:"step_p95_ms"`
}

// runLatency benchmarks tracker-step wall time against the worker count and
// the tile grid. Every (grid, workers) pair replays the same observation
// stream through a fresh tracker built from the same seed, so runs of one
// grid do identical numerical work (the worker-invariance tests prove
// identical output); only the scheduling differs. Different grids do
// different work — that's the sharding trade the shards column exposes.
func runLatency(args []string) error {
	fs := flag.NewFlagSet("fluxbench latency", flag.ContinueOnError)
	var (
		users   = fs.Int("users", 3, "number of tracked users")
		trackN  = fs.Int("trackn", 1000, "SMC prediction samples per user per round")
		samples = fs.Int("samples", 90, "number of sniffed nodes")
		rounds  = fs.Int("rounds", 10, "observation rounds per repeat")
		repeats = fs.Int("repeats", 3, "fresh-tracker repeats per entry")
		seed    = fs.Uint64("seed", 1, "base seed for scenario, walks, and tracker")
		list    = fs.String("workers", "1,2,4,8", "comma-separated worker counts (0 = GOMAXPROCS)")
		gridsFl = fs.String("shards", "1x1", "comma-separated RxC tile grids (1x1 = the unsharded tracker, byte for byte)")
		halo    = fs.Float64("halo", 0, "tile halo width shared by every sharded grid")
		jsonOut = fs.String("json", "", "write a JSON latency report to this file")
	)
	tracker := exp.BindTrackerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ts, err := tracker.Settings()
	if err != nil {
		return err
	}
	workerCounts, err := parseWorkerList(*list)
	if err != nil {
		return err
	}
	grids, err := parseGridList(*gridsFl)
	if err != nil {
		return err
	}

	// Build the world once: scenario, sniffer, random walks, and the full
	// observation stream. Precomputing the observations keeps traffic
	// simulation out of the timed region — only the tracker step is measured.
	src := rng.New(*seed)
	sc, err := core.NewScenario(core.ScenarioConfig{}, src)
	if err != nil {
		return err
	}
	sniffer, err := sc.NewSnifferCount(*samples, src)
	if err != nil {
		return err
	}
	walks := make([]mobility.Trajectory, *users)
	stretches := make([]float64, *users)
	starts := make([]geom.Point, *users)
	for i := range walks {
		w, err := mobility.NewRandomWalk(sc.Field(), src.InRect(sc.Field()), 4, *rounds+1, src)
		if err != nil {
			return err
		}
		walks[i] = w
		stretches[i] = src.Uniform(1, 3)
		starts[i] = sc.Field().Clamp(w.At(0))
	}
	observations := make([][]float64, *rounds)
	for r := range observations {
		t := float64(r + 1)
		us := make([]traffic.User, *users)
		for i, w := range walks {
			us[i] = traffic.User{Pos: sc.Field().Clamp(w.At(t)), Stretch: stretches[i], Active: true}
		}
		o, err := sniffer.Observe(us, 0, src)
		if err != nil {
			return err
		}
		observations[r] = o
	}
	// Tamper the precomputed stream once, outside the timed region: the
	// adversary's cost is the attacker's problem; what the entries measure is
	// what the *defense* adds to the tracker step.
	if ts.Liars > 0 {
		adv, err := sniffer.NewAdversary(ts.Adversary, src.Uint64())
		if err != nil {
			return err
		}
		for r, o := range observations {
			tampered, err := adv.Apply(o)
			if err != nil {
				return err
			}
			observations[r] = tampered
		}
	}

	report := latencyReport{
		Users: *users, TrackN: *trackN, Samples: *samples,
		Rounds: *rounds, Repeats: *repeats, Seed: *seed, Halo: *halo,
		Liars:      ts.Liars,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if ts.Robust.Mode != fit.RobustOff {
		report.Robust = ts.Robust.Mode.String()
	}
	var cache *fingerprint.Cache
	if ts.Coarse.Enabled {
		report.CoarseTopK = ts.Coarse.TopK
		report.CoarseGrid = ts.Coarse.GridRes
		// Every repeat and every (grid, workers) pair rebuilds identical
		// fingerprint databases; one shared cache builds each exactly once.
		cache = fingerprint.NewCache(0)
	}

	fmt.Printf("%6s %8s %10s %10s %10s %10s %9s\n",
		"shards", "workers", "steps", "p50 ms", "p95 ms", "mean ms", "speedup")
	for _, g := range grids {
		grid := g
		grid.Halo = *halo
		// The coordinator writes one tile-scoped span per stepped tile per
		// round, and the tile trackers add their own plain spans (Tile -1):
		// size the ring to hold both for a whole entry.
		spanCap := *repeats * *rounds * grid.Tiles() * 2
		var serialMean float64
		var refMean geom.Point // final first-user estimate at the first worker count
		for wi, workers := range workerCounts {
			trace := obs.NewTrace(spanCap + 16)
			durations := make([]float64, 0, *rounds**repeats)
			var last geom.Point
			var imbMax int
			var imbMean float64
			start := time.Now()
			for rep := 0; rep < *repeats; rep++ {
				field, err := sniffer.NewShardedTracker(*users, core.TrackerConfig{
					N: *trackN, M: 10, VMax: 5, Workers: workers,
					Search: fit.Options{Robust: ts.Robust},
					Coarse: ts.Coarse, DBCache: cache,
					Shards: grid, InitialPositions: starts, Trace: trace,
				}, *seed+101)
				if err != nil {
					return err
				}
				for r, o := range observations {
					t0 := time.Now()
					res, err := field.Step(float64(r+1), o)
					if err != nil {
						return err
					}
					durations = append(durations, time.Since(t0).Seconds()*1e3)
					last = res.Estimates[0].Mean
				}
				imbMax, imbMean = field.Imbalance()
			}
			total := time.Since(start).Seconds()

			// Cheap cross-check of the worker-invariance contract on top of
			// the unit tests: within one grid, the final estimate must not
			// depend on the worker count.
			if wi == 0 {
				refMean = last
			} else if last != refMean {
				return fmt.Errorf("latency: shards=%s workers=%d diverged from workers=%d output",
					grid, workers, workerCounts[0])
			}

			sort.Float64s(durations)
			entry := latencyEntry{
				Shards:        grid.String(),
				Rows:          grid.Rows,
				Cols:          grid.Cols,
				Tiles:         grid.Tiles(),
				Workers:       workers,
				Steps:         len(durations),
				P50ms:         stats.Percentile(durations, 50),
				P95ms:         stats.Percentile(durations, 95),
				MeanMs:        stats.Mean(durations),
				TotalS:        total,
				ImbalanceMax:  imbMax,
				ImbalanceMean: imbMean,
				PerShard:      perShardLatency(trace.Snapshot(), grid.Tiles()),
			}
			if wi == 0 {
				serialMean = entry.MeanMs
			}
			if entry.MeanMs > 0 {
				entry.Speedup = serialMean / entry.MeanMs
				entry.UsersPerSec = float64(*users) * 1e3 / entry.MeanMs
			}
			report.Entries = append(report.Entries, entry)
			fmt.Printf("%6s %8d %10d %10.2f %10.2f %10.2f %8.2fx\n",
				entry.Shards, workers, entry.Steps, entry.P50ms, entry.P95ms, entry.MeanMs, entry.Speedup)
			if grid.Tiles() > 1 {
				for _, sl := range entry.PerShard {
					fmt.Printf("%6s   tile %-2d %8d  queue p50/p95 %7.2f/%7.2f ms  step p50/p95 %7.2f/%7.2f ms\n",
						"", sl.Tile, sl.Steps, sl.QueueP50ms, sl.QueueP95ms, sl.StepP50ms, sl.StepP95ms)
				}
			}
		}
	}

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote latency report to %s\n", *jsonOut)
	}
	return nil
}

// perShardLatency reduces the coordinator's tile-scoped spans (Span.Tile >=
// 0; the tile trackers' own spans carry Tile -1 and are skipped) into one
// queue/step distribution per tile.
func perShardLatency(spans []obs.Span, tiles int) []shardLatency {
	queue := make([][]float64, tiles)
	step := make([][]float64, tiles)
	for _, s := range spans {
		if s.Tile < 0 || s.Tile >= tiles {
			continue
		}
		queue[s.Tile] = append(queue[s.Tile], float64(s.QueueNs)/1e6)
		step[s.Tile] = append(step[s.Tile], float64(s.WallNs)/1e6)
	}
	out := make([]shardLatency, 0, tiles)
	for tile := 0; tile < tiles; tile++ {
		if len(step[tile]) == 0 {
			continue
		}
		sort.Float64s(queue[tile])
		sort.Float64s(step[tile])
		out = append(out, shardLatency{
			Tile:       tile,
			Steps:      len(step[tile]),
			QueueP50ms: stats.Percentile(queue[tile], 50),
			QueueP95ms: stats.Percentile(queue[tile], 95),
			StepP50ms:  stats.Percentile(step[tile], 50),
			StepP95ms:  stats.Percentile(step[tile], 95),
		})
	}
	return out
}

// parseWorkerList parses "1,2,4,8" into worker counts.
func parseWorkerList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("latency: bad -workers entry %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("latency: empty -workers list")
	}
	return out, nil
}
