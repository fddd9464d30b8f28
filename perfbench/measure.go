package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"fluxtrack/internal/core"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/smc"
)

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for an empty slice).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 3

// timeSetup runs build setupReps times and returns the last build's result
// with every repetition's duration in seconds. Earlier results are passed
// to discard so they can release what they hold.
func timeSetup[T any](build func() (T, error), discard func(T)) (T, []float64, error) {
	var out T
	durations := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(out)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return out, nil, err
		}
		durations = append(durations, time.Since(start).Seconds())
		out = v
	}
	return out, durations, nil
}

// installSeed fixes the deployment and the sniffed nodes every workload
// runs on, as serve.Config.Seed does for a server: the installation is not
// an input the seed varies. A change of installation changes how much work
// a round takes by up to 3× (the sensors a tile owns set its NNLS size), so
// runs of different seeds would not be comparable; the seed varies the
// users, their walks, the liars, the losses and the trackers' draws.
const installSeed = 20100621

// installation deploys the paper-default scenario from installSeed and picks
// its sniffed nodes.
func installation(sniffed int) (*core.Scenario, *core.Sniffer, error) {
	src := rng.New(installSeed)
	sc, err := core.NewScenario(core.ScenarioConfig{}, src)
	if err != nil {
		return nil, nil, err
	}
	sn, err := sc.NewSnifferCount(sniffed, src)
	if err != nil {
		return nil, nil, err
	}
	return sc, sn, nil
}

// passResult is what one fixed-round pass produced that must repeat.
type passResult struct {
	digest uint64
	counts map[string]uint64
}

// runPasses runs fresh passes of the workload's fixed rounds until seconds
// of measuring have elapsed, at least one of each kind. In a traced run the
// passes alternate untraced and traced, so both see the same machine state.
// Every pass must reproduce the first pass's digest, and the counts of the
// first pass of its kind: a traced pass also counts what obs.Metrics does.
func (r *run) runPasses(seconds float64, traced bool, pass func(traced bool) (passResult, error)) error {
	first := map[bool]*passResult{}
	start := time.Now()
	for i := 0; ; i++ {
		tracedPass := traced && i%2 == 1
		// Stop once another pass would end nearer past the measuring time
		// than this one stops short of it.
		elapsed := time.Since(start).Seconds()
		if i >= 1 && (!traced || i >= 2) && elapsed+0.5*elapsed/float64(i) >= seconds {
			return nil
		}
		if tracedPass {
			r.latTrace = append(r.latTrace, nil)
		} else {
			r.lat = append(r.lat, nil)
		}
		res, err := pass(tracedPass)
		if err != nil {
			return err
		}
		if first[false] != nil && res.digest != first[false].digest {
			r.check(false, "pass %d digest %016x differs from the first pass's %016x", i, res.digest, first[false].digest)
		}
		ref := first[tracedPass]
		if ref == nil {
			first[tracedPass] = &res
			r.digest = res.digest
			for k, v := range res.counts {
				r.counts[k] = v
			}
			continue
		}
		r.check(true, "")
		for _, k := range sortedKeys(ref.counts) {
			if res.counts[k] != ref.counts[k] {
				r.check(false, "pass %d count %s = %d, first such pass %d", i, k, res.counts[k], ref.counts[k])
			}
		}
	}
}

// digester hashes every round's estimates: round index and each user's
// mean position, bit for bit.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) round(r int, pts []geom.Point) {
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		d.h.Write(buf[:])
	}
	put(uint64(r))
	for _, p := range pts {
		put(math.Float64bits(p.X))
		put(math.Float64bits(p.Y))
	}
}

func (d *digester) sum() uint64 { return d.h.Sum64() }

// means extracts the per-user position estimates of a step.
func means(res smc.StepResult) []geom.Point {
	out := make([]geom.Point, len(res.Estimates))
	for j, e := range res.Estimates {
		out[j] = e.Mean
	}
	return out
}

// checkEstimates fails the run on any non-finite estimate or one outside
// the field. An estimate is a weighted mean of in-field samples, which
// floating-point rounding alone can carry a few ulps past an edge; such an
// estimate passes and is counted in r.pastEdge.
func (r *run) checkEstimates(round int, pts []geom.Point, field geom.Rect) {
	tol := 1e-12 * field.Diameter()
	for j, p := range pts {
		finite := !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
		if !finite || !field.Contains(field.Clamp(p)) || p.Dist(field.Clamp(p)) > tol {
			r.check(false, "round %d user %d estimate (%.17g, %.17g) is not a finite point inside %v", round, j, p.X, p.Y, field)
			return
		}
		if !field.Contains(p) {
			r.pastEdge++
		}
	}
	r.check(true, "")
}

// matchErrors pairs each estimate greedily with its nearest unmatched true
// position and returns the pairing distances: tracker identities are
// exchangeable, so accuracy is judged by proximity.
func matchErrors(estimates, truths []geom.Point) []float64 {
	used := make([]bool, len(truths))
	out := make([]float64, 0, len(estimates))
	for _, est := range estimates {
		best, bestD := -1, 0.0
		for j, tr := range truths {
			if used[j] {
				continue
			}
			if d := est.Dist(tr); best < 0 || d < bestD {
				best, bestD = j, d
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		out = append(out, bestD)
	}
	return out
}

// counterDelta returns the counters of after minus before, by name.
func counterDelta(before, after obs.Snapshot) map[string]uint64 {
	prev := make(map[string]uint64, len(before.Counters))
	for _, c := range before.Counters {
		prev[c.Name] = c.Value
	}
	out := make(map[string]uint64, len(after.Counters))
	for _, c := range after.Counters {
		if d := c.Value - prev[c.Name]; d > 0 {
			out[c.Name] = d
		}
	}
	return out
}

// histogramDelta returns the count and sum added to one histogram.
func histogramDelta(before, after obs.Snapshot, name string) (count uint64, sum float64) {
	for _, h := range after.Histograms {
		if h.Name == name {
			count, sum = h.Count, h.Sum
		}
	}
	for _, h := range before.Histograms {
		if h.Name == name {
			count, sum = count-h.Count, sum-h.Sum
		}
	}
	return count, sum
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memSample is the Go runtime state the go.* metrics difference.
type memSample struct {
	totalAlloc uint64
	pauseNs    uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{totalAlloc: m.TotalAlloc, pauseNs: m.PauseTotalNs}
}

// goLayers records allocation and GC pause per round between two samples.
func (r *run) goLayers(before, after memSample, rounds int) {
	if rounds <= 0 {
		return
	}
	r.layers["go.alloc_bytes_per_round"] = float64(after.totalAlloc-before.totalAlloc) / float64(rounds)
	r.layers["go.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6 / float64(rounds)
}

// liveHeap forces a collection and returns the live heap in MB. Callers
// keep their state referenced across the call.
func liveHeap() float64 {
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// span is one benchmark-side trace record: a call into a layer's public
// function, or a phase reconstructed from the program's own obs.Span.
type span struct {
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the top
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans is the in-memory span store of a traced run. A nil *spans is the
// untraced recorder: every method is a no-op.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) at(t time.Time) int64 { return t.Sub(s.t0).Nanoseconds() }

// add records a finished span and returns its index.
func (s *spans) add(name string, round, parent int, start, end time.Time) int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{Name: name, Round: round, Parent: parent, Start: s.at(start), End: s.at(end)})
	return len(s.list) - 1
}

// begin opens a span whose end is set by finish.
func (s *spans) begin(name string, round, parent int) int {
	if s == nil {
		return -1
	}
	now := time.Now()
	return s.add(name, round, parent, now, now)
}

func (s *spans) finish(id int) {
	if s == nil || id < 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.list[id].End = s.at(now)
	s.mu.Unlock()
}

// spanStat is the aggregate of every span of one name.
type spanStat struct {
	count     int
	totalMs   float64
	selfMs    float64
	maxMs     float64
	durations []float64
}

func (st *spanStat) meanMs() float64     { return ratio(st.totalMs, float64(st.count)) }
func (st *spanStat) selfMeanMs() float64 { return ratio(st.selfMs, float64(st.count)) }

// stats aggregates the spans by name. A span's self time is its duration
// minus the part of its interval its children cover.
func (s *spans) stats() map[string]*spanStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	children := make(map[int][]int)
	for i, sp := range s.list {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	out := make(map[string]*spanStat)
	for i, sp := range s.list {
		dur := float64(sp.End-sp.Start) / 1e6
		st := out[sp.Name]
		if st == nil {
			st = &spanStat{}
			out[sp.Name] = st
		}
		st.count++
		st.totalMs += dur
		st.maxMs = math.Max(st.maxMs, dur)
		st.durations = append(st.durations, dur)
		st.selfMs += dur - covered(sp, s.list, children[i])
	}
	return out
}

// covered is how many ms of parent's interval the union of its children's
// intervals covers.
func covered(parent span, list []span, kids []int) float64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(list[k].Start, parent.Start), min(list[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = math.MinInt64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return float64(total) / 1e6
}

// write stores the spans as JSON lines under dir.
func (s *spans) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	s.mu.Lock()
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			s.mu.Unlock()
			f.Close()
			return err
		}
	}
	s.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recorded is what a run of one seed must reproduce on a later run of the
// same binary: the output digest, err_mean and the work counts.
type recorded struct {
	Digest  string            `json:"digest"`
	ErrMean uint64            `json:"err_mean_bits"`
	Counts  map[string]uint64 `json:"counts"`
}

// compareRecorded checks this run against the record an earlier run of the
// same binary, workload, seed and trace mode left under dir, or leaves that
// record. Counts compare exactly, never within a time bound.
func (r *run) compareRecorded(dir string, seed uint64, traced bool) {
	id, err := binaryID()
	if err != nil {
		r.check(false, "identify binary: %v", err)
		return
	}
	mode := 0
	if traced {
		mode = 1
	}
	path := filepath.Join(dir, "counts", fmt.Sprintf("%s-%s-seed%d-trace%d.json", id, r.workload, seed, mode))
	now := recorded{Digest: fmt.Sprintf("%016x", r.digest), ErrMean: math.Float64bits(r.errMean), Counts: r.counts}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		buf, err := json.Marshal(now)
		if err == nil {
			err = os.MkdirAll(filepath.Dir(path), 0o755)
		}
		if err == nil {
			err = os.WriteFile(path, buf, 0o644)
		}
		r.check(err == nil, "record counts: %v", err)
		return
	}
	var prev recorded
	if err == nil {
		err = json.Unmarshal(data, &prev)
	}
	if err != nil {
		r.check(false, "read recorded counts: %v", err)
		return
	}
	r.check(prev.Digest == now.Digest, "digest %s differs from an earlier run's %s", now.Digest, prev.Digest)
	r.check(prev.ErrMean == now.ErrMean, "err_mean %v differs from an earlier run's %v",
		r.errMean, math.Float64frombits(prev.ErrMean))
	for _, k := range sortedKeys(prev.Counts) {
		if prev.Counts[k] != now.Counts[k] {
			r.check(false, "count %s = %d, an earlier run recorded %d", k, now.Counts[k], prev.Counts[k])
		}
	}
}

// binaryID names the running executable by a hash of its bytes, so records
// from another build never meet this one's.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
