package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	"fluxtrack/internal/core"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/mobility"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/serve"
	"fluxtrack/internal/traffic"
)

// The serve workload: an open loop over loopback HTTP into an in-process
// serve.Server, one tenant and one client connection per CPU. Each tenant
// runs a light plain tracker, so a step costs well under a millisecond and
// the HTTP, JSON, queueing and checkpoint path is a visible share. A client
// posts each round's observation at its due time, whether or not earlier
// rounds are done, and polls the tenant's estimate beside the posts; a
// round's latency runs from its due time until an estimate read shows it.
const (
	serveUsers       = 1 // users per tenant
	serveN           = 100
	serveM           = 10
	serveQueue       = 32  // per-tenant ingestion queue depth
	serveOpRate      = 400 // operating rate, rounds/s across tenants
	servePassRounds  = 100 // rounds per tenant per pass at the operating rate
	serveCkptEvery   = 25  // rounds between checkpoints
	serveWalk        = 3   // largest step of a user per round
	serveWalkLen     = 200 // distinct positions per user, walked back and forth
	serveWarm        = 10  // warm-up rounds per tenant per set-up
	serveLimitMs     = 10.0
	serveRungSeconds = 1.5
	serveRungTries   = 3
	servePoll        = 50 * time.Microsecond // estimate read spacing while rounds are outstanding
	serveDrain       = 10 * time.Second      // longest wait for posted rounds to show
)

// ladderRates are the fixed rates, rounds/s across tenants, above the
// operating rate that find the highest sustainable one.
var ladderRates = []int{800, 1600, 6400}

// serveStream is one tenant's input: every distinct observation of its
// users' walks and their true positions. Round k observes position
// pingPong(k), so a stream of any length moves at most serveWalk a round.
type serveStream struct {
	readings [][]float64
	truth    [][]geom.Point
	seed     uint64
}

func pingPong(k int) int {
	period := 2 * (serveWalkLen - 1)
	p := k % period
	if p >= serveWalkLen {
		p = period - p
	}
	return p
}

// serveEnv is a running server with its listener and one client per
// tenant slot.
type serveEnv struct {
	srv      *serve.Server
	metrics  *obs.Metrics
	trace    *obs.Trace
	hs       *http.Server
	served   chan struct{} // closed when the HTTP server's Serve returns
	base     string
	clients  []*http.Client
	resident []string // tenants of the latest load
	clock    *clock
}

func startServe(traced bool) (*serveEnv, error) {
	env := &serveEnv{metrics: obs.New(0)}
	if traced {
		env.trace = obs.NewTrace(1 << 16)
	}
	srv, err := serve.New(serve.Config{
		Seed: installSeed, SnifferFraction: 0.1,
		MaxTenants: 2 * workers(), DefaultQueue: serveQueue,
		Metrics: env.metrics, Trace: env.trace,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	env.srv = srv
	env.clock = newClock()
	env.base = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	env.served = make(chan struct{})
	go func() {
		defer close(env.served)
		_ = env.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for i := 0; i < workers(); i++ {
		env.clients = append(env.clients, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	return env, nil
}

// close stops the HTTP server and every tenant and waits for them.
func (env *serveEnv) close() {
	_ = env.hs.Close() // only reports the listener's close error
	<-env.served
	for _, c := range env.clients {
		c.CloseIdleConnections()
	}
	env.srv.Close()
	env.clock.close()
}

// call sends one request and returns the status and body.
func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	return resp.StatusCode, msg, err
}

func (env *serveEnv) createTenant(c *http.Client, id string, seed uint64) error {
	body, err := json.Marshal(serve.TenantConfig{
		Users: serveUsers, Seed: seed, Samples: serveN, TrackM: serveM, Workers: 1, Queue: serveQueue,
	})
	if err != nil {
		return err
	}
	code, msg, err := call(c, http.MethodPost, env.base+"/v1/tenant/"+id, body)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("create tenant %s: %d %s", id, code, msg)
	}
	return nil
}

func (env *serveEnv) deleteTenant(c *http.Client, id string) error {
	code, msg, err := call(c, http.MethodDelete, env.base+"/v1/tenant/"+id, nil)
	if err != nil {
		return err
	}
	if code != http.StatusNoContent {
		return fmt.Errorf("delete tenant %s: %d %s", id, code, msg)
	}
	return nil
}

func (env *serveEnv) estimate(c *http.Client, id string) (serve.EstimateResponse, error) {
	var est serve.EstimateResponse
	code, msg, err := call(c, http.MethodGet, env.base+"/v1/tenant/"+id+"/estimate", nil)
	if err != nil {
		return est, err
	}
	if code != http.StatusOK {
		return est, fmt.Errorf("estimate %s: %d %s", id, code, msg)
	}
	if err := json.Unmarshal(msg, &est); err != nil {
		return est, err
	}
	if est.StepError != "" {
		return est, fmt.Errorf("tenant %s step error: %s", id, est.StepError)
	}
	return est, nil
}

func estimatePoints(est serve.EstimateResponse) []geom.Point {
	out := make([]geom.Point, len(est.Users))
	for j, u := range est.Users {
		out[j] = geom.Pt(u.X, u.Y)
	}
	return out
}

// observeBody encodes round k of a stream; T = 0 asks for the tenant's
// next round.
func (s *serveStream) observeBody(k int) ([]byte, error) {
	return json.Marshal(serve.Observation{Readings: s.readings[pingPong(k)]})
}

// schedule is one open-loop load: rounds per tenant at a total rate.
type schedule struct {
	rate      float64 // rounds/s across tenants
	rounds    int     // rounds per tenant
	ckptEvery int     // 0 = no checkpoints
	// abandon is how late a posted round may get before the load stops:
	// rounds not shown by then count as that late.
	abandon time.Duration
}

// tenantLoad is what one client saw driving one tenant.
type tenantLoad struct {
	accepted  []int                // stream rounds the tenant accepted, in order
	seen      map[int][]geom.Point // estimate first read at each completed-round count
	lat, late []float64            // ms from due time to shown, and to sent
	rejected  int
	abandoned int // rounds given up on once the load fell too far behind
	failed    []string
	backlog   []int // at each estimate read: rounds due minus rounds shown
	pendMax   int
	gets      int
	ckpt      []byte // last checkpoint blob
	ckptAt    int    // accepted rounds the last checkpoint holds
	ckptMs    []float64
	ckptBytes []float64
	obsMs     []float64
	estMs     []float64
	final     []geom.Point
	start     time.Time
	end       time.Time
}

// drive runs one tenant's open loop: round k is due at start + offset +
// k/perTenantRate and is posted then, whatever is outstanding; estimate
// reads poll beside the posts until every accepted round has shown.
func (env *serveEnv) drive(c *http.Client, id string, s *serveStream, sch schedule, start time.Time, offset time.Duration, sp *spans) *tenantLoad {
	tl := &tenantLoad{seen: map[int][]geom.Point{}, start: start}
	interval := time.Duration(float64(time.Second) * float64(workers()) / sch.rate)
	due := func(k int) time.Time { return start.Add(offset + time.Duration(k)*interval) }
	type outstanding struct {
		n   int // completed-round count that shows it
		due time.Time
	}
	var waiting []outstanding
	shown := 0
	k := 0
	for k < sch.rounds || len(waiting) > 0 {
		now := time.Now()
		if len(waiting) > 0 && now.Sub(waiting[0].due) > sch.abandon {
			tl.abandoned = len(waiting) + sch.rounds - k
			break
		}
		if k < sch.rounds && !now.Before(due(k)) {
			body, err := s.observeBody(k)
			if err != nil {
				tl.failed = append(tl.failed, err.Error())
				break
			}
			sent := time.Now()
			code, msg, err := call(c, http.MethodPost, env.base+"/v1/tenant/"+id+"/observe", body)
			done := time.Now()
			sp.add("serve.observe", k, -1, sent, done)
			tl.obsMs = append(tl.obsMs, ms(done.Sub(sent)))
			tl.late = append(tl.late, ms(sent.Sub(due(k))))
			switch {
			case err != nil:
				tl.failed = append(tl.failed, fmt.Sprintf("%s observe %d: %v", id, k, err))
			case code == http.StatusTooManyRequests:
				tl.rejected++
			case code != http.StatusAccepted:
				tl.failed = append(tl.failed, fmt.Sprintf("%s observe %d: %d %s", id, k, code, msg))
			default:
				tl.accepted = append(tl.accepted, k)
				waiting = append(waiting, outstanding{n: len(tl.accepted), due: due(k)})
			}
			if sch.ckptEvery > 0 && k%sch.ckptEvery == sch.ckptEvery-1 && k < sch.rounds-1 {
				env.checkpoint(c, id, tl, k, sp)
			}
			k++
			continue
		}
		if len(waiting) > 0 {
			sent := time.Now()
			est, err := env.estimate(c, id)
			done := time.Now()
			sp.add("serve.estimate", k, -1, sent, done)
			tl.estMs = append(tl.estMs, ms(done.Sub(sent)))
			tl.gets++
			if err != nil {
				tl.failed = append(tl.failed, err.Error())
				break
			}
			if est.Rounds > shown {
				shown = est.Rounds
				tl.seen[shown] = estimatePoints(est)
			}
			tl.pendMax = max(tl.pendMax, est.Pending)
			for len(waiting) > 0 && waiting[0].n <= shown {
				tl.lat = append(tl.lat, ms(done.Sub(waiting[0].due)))
				waiting = waiting[1:]
			}
			dueNow := min(int(done.Sub(start.Add(offset))/interval)+1, sch.rounds)
			tl.backlog = append(tl.backlog, dueNow-shown)
		}
		// Wait for the next poll or the next due time, whichever is first.
		wake := time.Now().Add(servePoll)
		if len(waiting) == 0 && k < sch.rounds {
			wake = due(k)
		} else if k < sch.rounds && due(k).Before(wake) {
			wake = due(k)
		}
		env.clock.wait(wake)
	}
	for i := 0; i < tl.abandoned; i++ {
		tl.lat = append(tl.lat, ms(sch.abandon))
	}
	tl.end = time.Now()
	if shown > 0 {
		tl.final = tl.seen[shown]
	}
	return tl
}

// timerSlack is how late a Go timer may fire: with every processor idle the
// runtime waits for timers in whole milliseconds, which would dominate the
// sub-millisecond latencies measured here.
const timerSlack = 1500 * time.Microsecond

// clock wakes the load generators at their due and poll times. Its one
// goroutine sleeps on a Go timer until the earliest deadline is timerSlack
// away, then in short nanosleep system calls, which wake within about 0.1
// ms. A system call holds its processor while it sleeps, so only this
// goroutine makes them: the clients block on channels and leave the other
// processor to the server.
type clock struct {
	mu      sync.Mutex
	waiters []clockWaiter
	kick    chan struct{} // a waiter arrived; buffered so wait never blocks on it
	stop    chan struct{}
	done    chan struct{}
}

type clockWaiter struct {
	at   time.Time
	wake chan struct{}
}

func newClock() *clock {
	c := &clock{kick: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	go c.run()
	return c
}

// wait returns at t.
func (c *clock) wait(t time.Time) {
	if !time.Now().Before(t) {
		return
	}
	w := clockWaiter{at: t, wake: make(chan struct{})}
	c.mu.Lock()
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
	<-w.wake
}

// close stops the clock's goroutine and waits for it. No wait may be
// pending.
func (c *clock) close() {
	close(c.stop)
	<-c.done
}

func (c *clock) run() {
	defer close(c.done)
	for {
		// Wake everyone due; find the earliest deadline left.
		now := time.Now()
		var next time.Time
		c.mu.Lock()
		kept := c.waiters[:0]
		for _, w := range c.waiters {
			if !now.Before(w.at) {
				close(w.wake)
				continue
			}
			kept = append(kept, w)
			if next.IsZero() || w.at.Before(next) {
				next = w.at
			}
		}
		c.waiters = kept
		c.mu.Unlock()

		d := time.Until(next)
		switch {
		case next.IsZero():
			select {
			case <-c.kick:
			case <-c.stop:
				return
			}
		case d > timerSlack:
			t := time.NewTimer(d - timerSlack)
			select {
			case <-t.C:
			case <-c.kick:
				t.Stop()
			case <-c.stop:
				t.Stop()
				return
			}
		default:
			// Short sleeps, so a waiter that arrives with an earlier
			// deadline is seen in time.
			ts := syscall.NsecToTimespec(min(d, 100*time.Microsecond).Nanoseconds())
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep
		}
	}
}

// checkpoint saves the tenant's state after round k.
func (env *serveEnv) checkpoint(c *http.Client, id string, tl *tenantLoad, k int, sp *spans) {
	sent := time.Now()
	code, blob, err := call(c, http.MethodPost, env.base+"/v1/tenant/"+id+"/checkpoint", nil)
	done := time.Now()
	sp.add("serve.checkpoint", k, -1, sent, done)
	if err != nil || code != http.StatusOK {
		tl.failed = append(tl.failed, fmt.Sprintf("%s checkpoint after round %d: %d %v %s", id, k, code, err, blob))
		return
	}
	tl.ckptMs = append(tl.ckptMs, ms(done.Sub(sent)))
	tl.ckptBytes = append(tl.ckptBytes, float64(len(blob)))
	tl.ckpt, tl.ckptAt = blob, len(tl.accepted)
}

// load runs one schedule on fresh tenants, one client each, and returns
// every tenant's view. The tenants stay resident until the next load, so
// live_heap_mb counts them.
func (env *serveEnv) load(streams []*serveStream, sch schedule, prefix string, sp *spans) ([]*tenantLoad, error) {
	for i, id := range env.resident {
		if err := env.deleteTenant(env.clients[i], id); err != nil {
			return nil, err
		}
	}
	ids := make([]string, len(streams))
	env.resident = ids
	for i, s := range streams {
		ids[i] = fmt.Sprintf("%s%d", prefix, i)
		if err := env.createTenant(env.clients[i], ids[i], s.seed); err != nil {
			return nil, err
		}
	}
	start := time.Now().Add(2 * time.Millisecond)
	loads := make([]*tenantLoad, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			offset := time.Duration(float64(time.Second) * float64(i) / sch.rate)
			loads[i] = env.drive(env.clients[i], ids[i], streams[i], sch, start, offset, sp)
		}(i)
	}
	wg.Wait()
	return loads, nil
}

// replay steps a fresh in-process tracker over a tenant's accepted stream,
// built exactly as the server builds a tenant's, and returns every round's
// estimates.
func replay(sn *core.Sniffer, s *serveStream, accepted []int) ([][]geom.Point, error) {
	tr, err := sn.NewStepTracker(serveUsers, core.TrackerConfig{N: serveN, M: serveM, Workers: 1}, s.seed)
	if err != nil {
		return nil, err
	}
	out := make([][]geom.Point, len(accepted))
	for i, k := range accepted {
		res, err := tr.Step(float64(i+1), s.readings[pingPong(k)])
		if err != nil {
			return nil, err
		}
		out[i] = means(res)
	}
	return out, nil
}

// restoreCheck restores a tenant's last checkpoint into a fresh tenant,
// posts the rounds accepted after it, and compares the final estimate.
func (env *serveEnv) restoreCheck(c *http.Client, id string, s *serveStream, tl *tenantLoad) error {
	if tl.ckpt == nil {
		return errors.New("no checkpoint was taken")
	}
	if err := env.createTenant(c, id, s.seed); err != nil {
		return err
	}
	defer env.deleteTenant(c, id)
	code, msg, err := call(c, http.MethodPost, env.base+"/v1/tenant/"+id+"/restore", tl.ckpt)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("restore: %d %v %s", code, err, msg)
	}
	for _, k := range tl.accepted[tl.ckptAt:] {
		body, err := s.observeBody(k)
		if err != nil {
			return err
		}
		for {
			code, msg, err := call(c, http.MethodPost, env.base+"/v1/tenant/"+id+"/observe", body)
			if err != nil {
				return err
			}
			if code == http.StatusAccepted {
				break
			}
			if code != http.StatusTooManyRequests {
				return fmt.Errorf("observe after restore: %d %s", code, msg)
			}
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(serveDrain)
	for {
		est, err := env.estimate(c, id)
		if err != nil {
			return err
		}
		if est.Rounds == len(tl.accepted) && est.Pending == 0 {
			got := estimatePoints(est)
			if !samePoints(got, tl.final) {
				return fmt.Errorf("restored tenant ends at %v, the original at %v", got, tl.final)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("restored tenant stuck at %d of %d rounds", est.Rounds, len(tl.accepted))
		}
		time.Sleep(time.Millisecond)
	}
}

func samePoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func newServeStreams(sn *core.Sniffer, field geom.Rect, seed uint64) ([]*serveStream, error) {
	src := rng.New(seed)
	streams := make([]*serveStream, workers())
	for i := range streams {
		s := &serveStream{seed: src.Uint64()}
		walks := make([]*mobility.RandomWalk, serveUsers)
		stretches := make([]float64, serveUsers)
		for j := range walks {
			w, err := mobility.NewRandomWalk(field, src.InRect(field), serveWalk, serveWalkLen, src)
			if err != nil {
				return nil, err
			}
			walks[j] = w
			stretches[j] = src.Uniform(1, 3)
		}
		for p := 0; p < serveWalkLen; p++ {
			us := make([]traffic.User, serveUsers)
			pts := make([]geom.Point, serveUsers)
			for j, w := range walks {
				pts[j] = field.Clamp(w.At(float64(p)))
				us[j] = traffic.User{Pos: pts[j], Stretch: stretches[j], Active: true}
			}
			o, err := sn.Observe(us, 0, nil)
			if err != nil {
				return nil, err
			}
			s.readings = append(s.readings, o)
			s.truth = append(s.truth, pts)
		}
		streams[i] = s
	}
	return streams, nil
}

// serveWorld is a started server with every tenant's stream.
type serveWorld struct {
	env     *serveEnv
	streams []*serveStream
}

func newServeWorld(cfg runConfig) (*serveWorld, error) {
	env, err := startServe(false)
	if err != nil {
		return nil, err
	}
	// The streams come from a twin of the server's installation, so the
	// traffic simulation that makes them stays out of the server's heap.
	sc, sn, err := installation(env.srv.Sensors())
	if err == nil && !samePoints(sn.Points(), env.srv.Sniffer().Points()) {
		err = errors.New("the stream installation's sniffer differs from the server's")
	}
	var streams []*serveStream
	if err == nil {
		streams, err = newServeStreams(sn, sc.Field(), cfg.seed)
	}
	if err != nil {
		env.close()
		return nil, err
	}
	// Warm-up: a short closed burst through throwaway tenants faults in the
	// HTTP stack, the JSON codecs and the tracker's code.
	warm := schedule{rate: float64(serveOpRate), rounds: serveWarm, ckptEvery: serveWarm / 2, abandon: serveDrain}
	if _, err := env.load(streams, warm, "warm", nil); err != nil {
		env.close()
		return nil, err
	}
	return &serveWorld{env: env, streams: streams}, nil
}

func runServe(cfg runConfig) (*run, error) {
	r := newRun("serve", servePassRounds*workers(), serveUsers, cfg.traced)
	w, setupS, err := timeSetup(func() (*serveWorld, error) { return newServeWorld(cfg) },
		func(old *serveWorld) { old.env.close() })
	if err != nil {
		return nil, err
	}
	defer w.env.close()
	r.setupS = setupS
	envs := map[bool]*serveEnv{false: w.env}
	if cfg.traced {
		traced, err := startServe(true)
		if err != nil {
			return nil, err
		}
		defer traced.close()
		envs[true] = traced
	}
	snap0 := map[*serveEnv]obs.Snapshot{}
	for _, env := range envs {
		snap0[env] = env.metrics.Snapshot()
	}

	op := schedule{rate: serveOpRate, rounds: servePassRounds, ckptEvery: serveCkptEvery, abandon: serveDrain}
	ladderS := serveRungSeconds * float64(len(ladderRates))
	var late []float64
	var rejected int
	var busyMs, wallS float64
	var calls serveCalls
	mem0 := readMem()
	err = r.runPasses(max(cfg.seconds-ladderS, 1), cfg.traced, func(traced bool) (passResult, error) {
		env := envs[traced]
		sp := map[bool]*spans{true: r.spans}[traced]
		before := env.metrics.Snapshot()
		start := time.Now()
		loads, err := env.load(w.streams, op, "t", sp)
		if err != nil {
			return passResult{}, err
		}
		after := env.metrics.Snapshot()
		_, stepMs := histogramDelta(before, after, "serve.step.ms")
		busyMs += stepMs
		wallS += time.Since(start).Seconds() * float64(len(loads))
		res, err := r.checkServeLoads(env, w.streams, loads, traced, &calls)
		if err != nil {
			return passResult{}, err
		}
		for _, tl := range loads {
			late = append(late, tl.late...)
			rejected += tl.rejected
		}
		// Every server counter but the request count, which the estimate
		// polling makes depend on timing, is a deterministic work count.
		for k, v := range counterDelta(before, after) {
			if k != "serve.http.requests" {
				res.counts[k] = v
			}
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	r.goLayers(mem0, readMem(), timedRounds(r.lat)+timedRounds(r.latTrace))
	r.heapMB = liveHeap()
	r.layers["harness.gen_late_p90_ms"] = percentile(late, 90)
	// The generator has fallen behind when a tenth of the posts leave more
	// than half an interval late; a pause of the machine that delays a few
	// posts does not count.
	if lateP90 := percentile(late, 90); lateP90 > 0.5*1e3*float64(workers())/serveOpRate {
		return nil, fmt.Errorf("invalid run: the load generator fell behind its schedule (lateness p90 %.3g ms)", lateP90)
	}
	opP90 := percentile(quietRounds(r.lat), 90)
	r.check(opP90 <= serveLimitMs, "operating rate p90 %.3g ms exceeds the %.3g ms limit", opP90, serveLimitMs)
	r.layers["serve.step_busy_frac"] = ratio(busyMs/1e3, wallS)
	r.layers["serve.observe_ms"] = mean(calls.observe)
	r.layers["serve.estimate_ms"] = mean(calls.estimate)
	r.layers["serve.checkpoint_ms"] = mean(calls.checkpoint)
	fmt.Printf("  operating rate %d/s: %d observe posts, %d estimate reads\n", serveOpRate, calls.posts, calls.gets)

	// The ladder: fresh tenants at each higher rate, for a fixed number of
	// rounds; the highest rung that holds the latency limit with no
	// rejection, no growing backlog and an on-time generator sets max_rate.
	// A rung gets serveRungTries attempts, for the reason quietRounds gives.
	r.maxRate = serveOpRate
	for _, rate := range ladderRates {
		var best rungResult
		for try := 0; try < serveRungTries && !best.ok; try++ {
			res, err := w.env.rung(w.streams, rate)
			if err != nil {
				return nil, err
			}
			rejected += res.rejected
			if try == 0 || res.ok || res.p90 < best.p90 {
				best = res
			}
		}
		r.layers[ladderMetric(rate)] = best.p90
		fmt.Printf("  ladder rate %5d/s: p90 %8.3f ms, generator late p90 %7.3f ms, achieved %8.1f/s, ok=%v\n",
			rate, best.p90, best.lateP90, best.achieved, best.ok)
		if best.ok {
			r.maxRate = best.achieved
		}
	}
	r.userRate = r.maxRate * serveUsers

	// 429s seen by the clients must match the server's own count.
	var serverRejected uint64
	for _, env := range envs {
		serverRejected += counterDelta(snap0[env], env.metrics.Snapshot())["serve.observe.rejected"]
	}
	r.check(uint64(rejected) == serverRejected, "clients saw %d 429s, /metrics counts %d", rejected, serverRejected)
	r.layers["serve.rejected"] = float64(rejected)

	r.serveLayers(envs[true])
	return r, nil
}

// rungResult is one attempt at one ladder rate.
type rungResult struct {
	ok       bool
	p90      float64 // ms
	lateP90  float64 // ms
	achieved float64 // accepted rounds/s across tenants
	rejected int
}

// rung drives fresh tenants at rate for serveRungSeconds and judges it.
func (env *serveEnv) rung(streams []*serveStream, rate int) (rungResult, error) {
	sch := schedule{
		rate:    float64(rate),
		rounds:  int(float64(rate) * serveRungSeconds / float64(workers())),
		abandon: time.Duration(10 * serveLimitMs * float64(time.Millisecond)),
	}
	loads, err := env.load(streams, sch, fmt.Sprintf("r%d-", rate), nil)
	if err != nil {
		return rungResult{}, err
	}
	var res rungResult
	var lat, late []float64
	var last time.Time
	ok, accepted := true, 0
	for _, tl := range loads {
		lat = append(lat, tl.lat...)
		late = append(late, tl.late...)
		res.rejected += tl.rejected
		ok = ok && tl.rejected == 0 && tl.abandoned == 0 && len(tl.failed) == 0 && !growing(tl.backlog)
		if tl.end.After(last) {
			last = tl.end
		}
		accepted += len(tl.accepted)
	}
	res.p90, res.lateP90 = percentile(lat, 90), percentile(late, 90)
	res.achieved = float64(accepted) / last.Sub(loads[0].start).Seconds()
	interval := 1e3 * float64(workers()) / float64(rate)
	res.ok = ok && res.p90 <= serveLimitMs && res.lateP90 <= interval/2
	return res, nil
}

// growing reports a backlog that climbs through a load: its mean over the
// last quarter of the samples exceeds the first quarter's by more than two
// rounds.
func growing(samples []int) bool {
	n := len(samples) / 4
	if n == 0 {
		return false
	}
	avg := func(s []int) float64 {
		sum := 0
		for _, b := range s {
			sum += b
		}
		return float64(sum) / float64(len(s))
	}
	return avg(samples[len(samples)-n:]) > avg(samples[:n])+2
}

// serveCalls gathers the client round trips of the operating-rate passes.
type serveCalls struct {
	observe, estimate, checkpoint []float64 // ms, traced passes
	posts, gets                   int
}

// checkServeLoads records one operating-rate pass: latencies, failures,
// and the checks that every estimate read matches an in-process replay of
// the tenant's accepted stream and that the last checkpoint restores.
func (r *run) checkServeLoads(env *serveEnv, streams []*serveStream, loads []*tenantLoad, traced bool, calls *serveCalls) (passResult, error) {
	dig := newDigester()
	var errs []float64
	counts := map[string]uint64{}
	field := env.srv.Scenario().Field()
	for i, tl := range loads {
		s := streams[i]
		r.attempted += servePassRounds
		for _, f := range tl.failed {
			r.fail("%s", f)
		}
		if tl.abandoned > 0 {
			r.fail("tenant %d: %d rounds not shown within %v", i, tl.abandoned, serveDrain)
		}
		for j := 0; j < tl.rejected; j++ {
			r.fail("tenant %d: observe rejected with 429 at the operating rate", i)
		}
		for _, l := range tl.lat {
			r.addRound(traced, l)
		}
		r.layers["serve.backlog_max"] = max(r.layers["serve.backlog_max"], float64(tl.pendMax))
		counts["serve.accepted"] += uint64(len(tl.accepted))
		rounds, err := replay(env.srv.Sniffer(), s, tl.accepted)
		if err != nil {
			return passResult{}, err
		}
		for n, got := range tl.seen {
			r.check(samePoints(got, rounds[n-1]), "tenant %d round %d: served %v, replay %v", i, n, got, rounds[n-1])
		}
		for n, est := range rounds {
			dig.round(i*servePassRounds+n, est)
			r.checkEstimates(n, est, field)
			errs = append(errs, matchErrors(est, s.truth[pingPong(tl.accepted[n])])...)
		}
		r.check(len(rounds) > 0 && samePoints(tl.final, rounds[len(rounds)-1]),
			"tenant %d final estimate %v differs from the replay's", i, tl.final)
		err = env.restoreCheck(env.clients[i], fmt.Sprintf("restore%d", i), s, tl)
		r.check(err == nil, "tenant %d checkpoint restore: %v", i, err)
		if traced {
			calls.observe = append(calls.observe, tl.obsMs...)
			calls.estimate = append(calls.estimate, tl.estMs...)
			calls.checkpoint = append(calls.checkpoint, tl.ckptMs...)
		}
		r.layers["serve.checkpoint_bytes"] = max(r.layers["serve.checkpoint_bytes"], percentile(tl.ckptBytes, 100))
		calls.gets += tl.gets
		calls.posts += len(tl.obsMs)
	}
	if r.scored == 0 {
		r.errMean, r.scored = mean(errs), len(errs)
	}
	return passResult{digest: dig.sum(), counts: counts}, nil
}

// serveLayers fills the smc phase split of the traced server's tenants.
func (r *run) serveLayers(traced *serveEnv) {
	if traced == nil {
		return
	}
	var predict, search, update, wall []float64
	for _, s := range traced.trace.Snapshot() {
		predict = append(predict, float64(s.PredictNs)/1e6)
		search = append(search, float64(s.SearchNs)/1e6)
		update = append(update, float64(s.UpdateNs)/1e6)
		wall = append(wall, float64(s.WallNs)/1e6)
	}
	r.layers["smc.predict_ms"] = mean(predict)
	r.layers["smc.search_ms"] = mean(search)
	r.layers["smc.update_ms"] = mean(update)
	r.layers["smc.step_ms"] = mean(wall)
	r.fitRatios()
	r.layers["harness.trace_overhead_ms"] = r.traceOverhead()
}
