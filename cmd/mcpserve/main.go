// Command mcpserve boots a simulated self-service cloud behind the
// VCD-style REST API and serves it in wall-clock time: the paced driver
// holds the simulation's virtual clock to -ratio virtual seconds per
// wall second, and externally submitted operations enter the event heap
// at quantum boundaries. Clients create sessions, instantiate vApps,
// and poll async task handles exactly as against a real cloud director
// — except that time inside is virtual and the whole installation is a
// deterministic simulation.
//
//	mcpserve                                   # 127.0.0.1:8080, one virtual minute per wall second
//	mcpserve -ratio 600 -set plane.shards=4    # faster clock, sharded management plane
//	mcpserve -config scenarios/default.json
//	mcpserve -duration 30s                     # serve for 30s wall, then summarize and exit
//	mcpserve -set metrics=true                 # print the per-layer metrics snapshot at shutdown
//
// The cloud is configured through the same scenario surface as mcpsim
// and mcpsweep: -config file.json, -seed, and repeatable -set
// path=value overrides of the scenario schema.
//
// On SIGINT/SIGTERM (or after -duration) the server drains: no further
// commands are injected, pending requests are rejected with 503, and a
// serving summary — operations, API-layer queue wait, worst wall-clock
// lag — is printed to stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cloudmcp/internal/api"
	"cloudmcp/internal/core"
	"cloudmcp/internal/report"
	"cloudmcp/internal/sim"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		ratio      = flag.Float64("ratio", 60, "virtual seconds per wall-clock second (0 = free-run, for tests)")
		quantum    = flag.Float64("quantum", 0.25, "injection quantum in virtual seconds")
		orgs       = flag.Int("orgs", 8, "tenant organizations (org0..orgN-1)")
		duration   = flag.Duration("duration", 0, "serve for this wall-clock duration then exit (0 = until SIGINT/SIGTERM)")
		sessionTTL = flag.Duration("session-ttl", api.DefaultSessionTTL, "idle timeout before a session is evicted (0 = never)")
	)
	load := core.BindConfigFlags(flag.CommandLine)
	flag.Parse()
	if err := validateServeFlags(*ratio, *quantum, *orgs, *duration); err != nil {
		fatal(err)
	}
	if *sessionTTL < 0 {
		fatal(fmt.Errorf("-session-ttl must be >= 0, got %v", *sessionTTL))
	}

	cfg, err := load()
	if err != nil {
		fatal(err)
	}
	st, err := api.StartStack(cfg, sim.PacedConfig{Ratio: *ratio, QuantumS: sim.Time(*quantum)},
		core.FrontendConfig{Orgs: *orgs}, *addr)
	if err != nil {
		fatal(err)
	}
	st.Server.SetSessionTTL(*sessionTTL)
	fmt.Fprintf(os.Stderr, "mcpserve: serving on %s (ratio %g, quantum %gs, shards %d, orgs %d)\n",
		st.URL, *ratio, *quantum, st.Cloud.Plane().ShardCount(), *orgs)

	// Serve until a signal or the -duration timer, whichever the
	// deployment uses; then drain.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	var timer <-chan time.Time
	if *duration > 0 {
		timer = time.After(*duration)
	}
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "mcpserve: %v, draining\n", sig)
	case <-timer:
		fmt.Fprintf(os.Stderr, "mcpserve: -duration elapsed, draining\n")
	case err := <-st.ServeErr():
		_ = st.Stop() // the listener already failed; that error is the one to report
		fatal(fmt.Errorf("serve: %w", err))
	}

	if err := st.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "mcpserve: shutdown: %v\n", err)
	}
	if err := summarize(os.Stdout, st); err != nil {
		fatal(err)
	}
}

// summarize prints the serving summary after the driver has stopped
// (MaxLag is only coherent then), with the metrics snapshot when the
// configuration collected one.
func summarize(w *os.File, stack *api.Stack) error {
	fe, drv := stack.Frontend, stack.Driver
	st := fe.Stats()
	if _, err := fmt.Fprintf(w,
		"mcpserve summary: virtual %.1fs served, %d submitted, %d completed, %d failed, %d in flight at drain\n",
		float64(fe.Clock()), st.Submitted, st.Completed, st.Failed, st.InFlight); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "api queue wait: total %.2f virtual s, mean %.3fs; worst wall lag %.1fms\n",
		st.QueueWaitSumS, st.QueueWaitMeanS, float64(drv.MaxLag())/float64(time.Millisecond)); err != nil {
		return err
	}
	return report.WriteMetrics(w, stack.Cloud.MetricsSnapshot())
}

// validateServeFlags rejects inconsistent values up front with a clear
// message instead of misbehaving mid-serve.
func validateServeFlags(ratio, quantum float64, orgs int, duration time.Duration) error {
	if ratio < 0 {
		return fmt.Errorf("-ratio must be >= 0, got %g", ratio)
	}
	if quantum <= 0 {
		return fmt.Errorf("-quantum must be > 0, got %g", quantum)
	}
	if orgs < 1 {
		return fmt.Errorf("-orgs must be >= 1, got %d", orgs)
	}
	if duration < 0 {
		return fmt.Errorf("-duration must be >= 0, got %v", duration)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcpserve:", err)
	os.Exit(1)
}
