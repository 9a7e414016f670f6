package core

// Regression tests for the determinism contract of the sweep engine:
// for a fixed seed, rendered artifacts must be byte-identical whatever
// the worker count. Run with -race to also exercise the concurrent path
// for data races.

import (
	"fmt"
	"strings"
	"testing"
)

// TestArtifactsIdenticalAcrossWorkerCounts renders every swept
// experiment on 1 and on 8 sweep workers and requires the same bytes:
// E5-E16 at quick scale, and E17-E21 on small grids (E19 over 180 s, the
// others over 120 s).
func TestArtifactsIdenticalAcrossWorkerCounts(t *testing.T) {
	const seed = 1
	trimmed := func(run func(Params) (Renderable, error), horizonS float64) func(int) (Renderable, error) {
		return func(workers int) (Renderable, error) {
			return run(Params{Seed: seed, HorizonS: horizonS, Workers: workers})
		}
	}
	type row struct {
		name string
		run  func(workers int) (Renderable, error)
		want []string // titles the artifact carries; name+": " when nil
	}
	var rows []row
	for _, e := range Experiments()[4:] {
		rows = append(rows, row{e.Name, func(workers int) (Renderable, error) { return e.Exec(seed, true, workers) }, nil})
	}
	rows = append(rows,
		row{"E17", trimmed(Runner(e17Loop{rates: []float64{0, 0.1, 0.3}, clients: 8}.run), 120), []string{
			"E17: closed-loop deploy goodput vs injected fault rate",
			"E17: HA restart storm on a faulty control plane",
		}},
		row{"E18", trimmed(Runner(e18Quick.run), 120), []string{
			"E18: linked-clone provisioning vs management shards",
			"E18: full-clone provisioning vs management shards",
			"E18: cross-shard coordination under a migration storm (shared DB)",
		}},
		row{"E19", trimmed(Runner(e19Ladder{sizes: []int{1000, 4000}, shards: []int{1, 2}, clients: 24}.run), 180), nil},
		row{"E20", trimmed(Runner(e20Loop{shards: []int{1, 2}, depths: []int{2}, intervalsS: []float64{60, 30}, clients: 8}.run), 120), []string{
			"E20: foreground goodput vs reconcile interval x depth x shards",
			"E20: drift storm after a host failure",
			"E20: thundering rebalance on datastore fill",
			"reconciliation plane",
		}},
		row{"E21", trimmed(Runner(e21Quick.run), 120), []string{
			"E21: policy tournament over scenario x fault rate",
			"E21: failover storm per policy",
			"E21: ranking by mean normalized goodput",
		}},
	)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			render := func(workers int) string {
				res, err := r.run(workers)
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				if err := res.Render(&sb); err != nil {
					t.Fatal(err)
				}
				return sb.String()
			}
			serial, parallel := render(1), render(8)
			if serial != parallel {
				t.Fatalf("%s artifact differs between 1 and 8 sweep workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", r.name, serial, parallel)
			}
			want := r.want
			if want == nil {
				want = []string{r.name + ": "}
			}
			for _, w := range want {
				if !strings.Contains(serial, w) {
					t.Fatalf("artifact missing %q:\n%s", w, serial)
				}
			}
		})
	}
}

func TestRegistryCoversE1ToE16(t *testing.T) {
	names := Experiments()
	if len(names) != 16 {
		t.Fatalf("registry has %d experiments, want 16", len(names))
	}
	for i, e := range names {
		if want := fmt.Sprintf("E%d", i+1); e.Name != want {
			t.Fatalf("registry[%d] = %q, want %q", i, e.Name, want)
		}
	}
}
