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
// experiment of the suite, E5-E16, and E19 at quick scale on 1 and on 8
// sweep workers, and requires the same bytes.
func TestArtifactsIdenticalAcrossWorkerCounts(t *testing.T) {
	const seed, scale = 1, 0.1
	runs := map[string]func(workers int) (Renderable, error){}
	for _, e := range Experiments()[4:] {
		runs[e.Name] = func(workers int) (Renderable, error) { return e.Run(seed, scale, workers) }
	}
	runs["E19"] = func(workers int) (Renderable, error) {
		quick := e19Ladder{sizes: []int{1000, 4000}, shards: []int{1, 2}, clients: 24}
		return quick.run(E19Params{Seed: seed, HorizonS: 1800 * scale, Workers: workers})
	}
	for i := 5; i <= 19; i++ {
		name := fmt.Sprintf("E%d", i)
		run, ok := runs[name]
		if !ok {
			continue // E17, E18: their own determinism tests
		}
		t.Run(name, func(t *testing.T) {
			render := func(workers int) string {
				r, err := run(workers)
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				if err := r.Render(&sb); err != nil {
					t.Fatal(err)
				}
				return sb.String()
			}
			serial, parallel := render(1), render(8)
			if serial != parallel {
				t.Fatalf("%s artifact differs between 1 and 8 sweep workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", name, serial, parallel)
			}
			if !strings.Contains(serial, name+": ") {
				t.Fatalf("unexpected artifact:\n%s", serial)
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
	if _, err := RunExperiment("E99", 1, true, 1); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}
