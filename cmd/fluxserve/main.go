// Command fluxserve hosts the tracking pipeline as a resident multi-tenant
// streaming service (internal/serve): many independent tenant fields over
// one shared sniffer vantage, each with its own tracker, bounded ingestion
// queue, and stepping goroutine, plus checkpoint/restore for crash recovery
// and tenant migration.
//
// Usage:
//
//	fluxserve -addr :8080
//	fluxserve -addr 127.0.0.1:8080 -nodes 900 -sniff 0.1 -seed 1
//
// See the "Serving" section of README.md for a curl walkthrough.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fluxtrack/internal/core"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
	"fluxtrack/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fluxserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fluxserve", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", "127.0.0.1:8080", "listen address")
		nodes  = fs.Int("nodes", 900, "sensor node count")
		side   = fs.Float64("field", 30, "square field side length")
		radius = fs.Float64("radius", 2.4, "radio range")
		sniff  = fs.Float64("sniff", 0.1, "fraction of nodes the vantage monitors")
		seed   = fs.Uint64("seed", 1, "deployment + vantage seed")
		maxTen = fs.Int("tenants", 64, "maximum resident tenants")
		queue  = fs.Int("queue", 64, "default per-tenant ingestion queue depth")
		traceN = fs.Int("trace", 4096, "step-trace ring capacity (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *obs.Trace
	if *traceN > 0 {
		tr = obs.NewTrace(*traceN)
	}
	srv, err := serve.New(serve.Config{
		Scenario: core.ScenarioConfig{
			Field:  geom.Square(*side),
			Nodes:  *nodes,
			Radius: *radius,
		},
		SnifferFraction: *sniff,
		Seed:            *seed,
		MaxTenants:      *maxTen,
		DefaultQueue:    *queue,
		Trace:           tr,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv.Handler())

	// One machine-readable line on startup: clients need the sensor count
	// to size their readings vectors.
	json.NewEncoder(os.Stdout).Encode(map[string]any{
		"listening": ln.Addr().String(),
		"sensors":   srv.Sensors(),
		"nodes":     *nodes,
		"seed":      *seed,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// Connection deadlines for the resident binary. A client that trickles
// header bytes, stalls mid-body, or parks an idle keep-alive connection
// would otherwise hold a goroutine and a file descriptor for the life of
// the process. The body deadline is generous because a restore uploads a
// whole checkpoint blob.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the service handler in an http.Server with the
// binary's connection deadlines.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}
