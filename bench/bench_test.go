package main

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"cloudmcp/bench/layers"
)

// runQuick runs one small in-process repetition of a workload.
func runQuick(t *testing.T, name string, seed int64) rep {
	t.Helper()
	r, err := runOne(name, seed, true, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

// Every workload runs end to end at quick size and passes its checks.
func TestQuickSmokeAllWorkloads(t *testing.T) {
	t0 := time.Now()
	for _, name := range workloadNames {
		r := runQuick(t, name, 1)
		if r.Ops <= 0 || r.SetupS <= 0 {
			t.Errorf("%s: %d ops, set-up %v s", name, r.Ops, r.SetupS)
		}
		if name == wServe {
			_, failed, problems := check(name, 1, true, []rep{r})
			if failed != 0 || len(problems) > 0 || r.Load.Instantiated == 0 {
				t.Errorf("serve: %d failed, problems %v, stats %+v", failed, problems, r.Load)
			}
			continue
		}
		if len(r.LatMS) == 0 || r.Digest == "" {
			t.Errorf("%s: %d latency samples, digest %q", name, len(r.LatMS), r.Digest)
		}
	}
	// The limit keeps the plain test run fast; the race detector slows
	// the workloads several-fold (the one-worker suite alone to 6 s).
	limit := 10 * time.Second
	if raceEnabled() {
		limit *= 3
	}
	if d := time.Since(t0); d > limit {
		t.Errorf("quick smoke took %v, want under %v", d, limit)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// The digest is a function of the seed: equal twice for one seed,
// different for another, and unchanged by tracing.
func TestDigestDeterminism(t *testing.T) {
	a, b := runQuick(t, wDeployLoop, 1), runQuick(t, wDeployLoop, 1)
	if a.Digest != b.Digest {
		t.Fatalf("seed 1 gave digests %s and %s", a.Digest, b.Digest)
	}
	if c := runQuick(t, wDeployLoop, 2); c.Digest == a.Digest {
		t.Fatal("seeds 1 and 2 gave the same digest")
	}
	traced, err := runTraced(wDeployLoop, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Digest != a.Digest {
		t.Fatalf("traced digest %s, untraced %s", traced.Digest, a.Digest)
	}
	sum := 0.0
	for _, l := range layers.Names {
		sum += traced.CPUShares[l]
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("traced CPU shares sum to %v", sum)
	}
}

// A repetition that does not reproduce the first digest of its seed
// fails, and at seed 1 a family digest other than the pinned one fails
// the run.
func TestCheckFlagsDigestMismatch(t *testing.T) {
	var reps []rep
	for i := 0; i < 2*seedFamily; i++ {
		reps = append(reps, rep{Digest: fmt.Sprint(i % seedFamily)})
	}
	if _, failed, problems := check(wDeployLoop, 5, false, reps); failed != 0 {
		t.Fatalf("consistent family: %d failed, %v", failed, problems)
	}
	reps[seedFamily+3].Digest = "x"
	attempted, failed, problems := check(wDeployLoop, 5, false, reps)
	if attempted != 2*seedFamily || failed != 1 || len(problems) != 1 {
		t.Errorf("attempted %d failed %d problems %v", attempted, failed, problems)
	}
	if _, failed, _ := check(wDeployLoop, 1, false, reps[:seedFamily]); failed != seedFamily {
		t.Error("seed 1 accepted a family digest other than the pinned one")
	}
}
