// Command mcpload drives a running mcpserve with N concurrent virtual
// users, each cycling vApps through instantiate → task poll → delete,
// and reports the client-observed latency distribution: end-to-end
// virtual seconds including the API-layer queue wait, with the queueing
// share split out. This is the serving counterpart of the batch
// experiments — the measurement loop lives outside the simulation and
// sees exactly what a tenant sees.
//
//	mcpload                                  # 1000 users for 10s against 127.0.0.1:8080
//	mcpload -users 200 -duration 5s
//	mcpload -url http://127.0.0.1:9090 -vms 2 -power-on
//	mcpload -think-ms 250                    # open the loop with mean 250ms think time
//
// Operations still unresolved when the drain grace expires are counted
// in the cutoff column, not as failures: they are deadline truncation,
// not server errors. Exit status is non-zero only on real failures —
// no operation succeeded and the run was not merely cut off — the
// smoke-test contract the CI leg relies on.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cloudmcp/internal/api"
	"cloudmcp/internal/report"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "mcpserve base URL")
		users    = flag.Int("users", 1000, "concurrent virtual users")
		orgs     = flag.Int("orgs", 8, "organizations users are spread across (must be <= the server's -orgs)")
		duration = flag.Duration("duration", 10*time.Second, "wall-clock time to keep submitting")
		vms      = flag.Int("vms", 1, "VMs per instantiated vApp")
		powerOn  = flag.Bool("power-on", false, "power on each vApp as part of instantiate")
		template = flag.String("template", "", "catalog template name (default: spread users across the catalog)")
		thinkMS  = flag.Float64("think-ms", 0, "mean exponential think time between cycles in wall ms (0 = closed loop)")
		seed     = flag.Int64("seed", 1, "seed for per-user think/template streams")
		grace    = flag.Duration("drain-grace", 5*time.Second, "how long past -duration in-flight operations may keep polling before they count as cut off")
	)
	flag.Parse()
	if err := validateLoadFlags(*users, *orgs, *vms, *duration, *thinkMS); err != nil {
		fatal(err)
	}
	if *grace <= 0 {
		fatal(fmt.Errorf("-drain-grace must be > 0, got %v", *grace))
	}

	fmt.Fprintf(os.Stderr, "mcpload: %d users against %s for %v\n", *users, *url, *duration)
	res, err := api.RunLoad(api.LoadConfig{
		BaseURL:     *url,
		Users:       *users,
		Orgs:        *orgs,
		Duration:    *duration,
		VMs:         *vms,
		PowerOn:     *powerOn,
		Template:    *template,
		ThinkMeanMS: *thinkMS,
		Seed:        *seed,
		DrainGrace:  *grace,
	})
	if err != nil {
		fatal(err)
	}

	t := report.APITable(
		fmt.Sprintf("mcpload: %d users, %v wall (virtual clock at %.1fs)", *users, res.WallDuration.Round(time.Millisecond), res.VirtualEndS),
		[]report.APIRow{res.Row()})
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if _, err := fmt.Fprintf(os.Stdout,
		"ops %d (ok %d, failed %d, transport errors %d, cut off %d); wall p99 %.0fms\n",
		res.Ops, res.Succeeded, res.Failed, res.HTTPError, res.Cutoff, res.WallMS.Percentile(99)); err != nil {
		fatal(err)
	}
	// Exit non-zero only on real failures. A run whose operations were
	// all cut off at the deadline measured a too-short window, not a
	// broken server; cutoffs have their own column and do not flip the
	// exit status.
	if res.Succeeded == 0 {
		if res.Cutoff > 0 && res.Failed == 0 && res.HTTPError == 0 {
			fmt.Fprintln(os.Stderr, "mcpload: no operation resolved before the drain deadline (all cut off); lengthen -duration or -drain-grace")
			return
		}
		fatal(fmt.Errorf("no operation succeeded"))
	}
}

// validateLoadFlags rejects inconsistent values up front with a clear
// message and non-zero exit.
func validateLoadFlags(users, orgs, vms int, duration time.Duration, thinkMS float64) error {
	if users < 1 {
		return fmt.Errorf("-users must be >= 1, got %d", users)
	}
	if orgs < 1 {
		return fmt.Errorf("-orgs must be >= 1, got %d", orgs)
	}
	if vms < 1 {
		return fmt.Errorf("-vms must be >= 1, got %d", vms)
	}
	if duration <= 0 {
		return fmt.Errorf("-duration must be > 0, got %v", duration)
	}
	if thinkMS < 0 {
		return fmt.Errorf("-think-ms must be >= 0, got %g", thinkMS)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcpload:", err)
	os.Exit(1)
}
