package layers

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"cloudmcp/internal/rng"
)

func TestOfInnermostInternalFrame(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "cloudmcp/internal/inventory.(*Inventory).AddVM", "cloudmcp/internal/core.(*Cloud).PrepopulateVMs"}, "inventory"},
		{[]string{"math/rand.(*rngSource).Seed", "cloudmcp/internal/rng.(*Reseeder).Reseed", "cloudmcp/internal/faults.(*Injector).Decide"}, "rng"},
		{[]string{"cloudmcp/internal/drs.(*Balancer).pass.func1"}, "reconcile"},
		{[]string{"cloudmcp/internal/sweep.Run[go.shape.struct { cloudmcp/internal/core.X int }].func2"}, "sweep"},
		{[]string{"cloudmcp/internal/queuetheory.ErlangC"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*conn).serve"}, "http"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m"}, "other"},
		{nil, "other"},
	} {
		if got := Of(tc.stack); got != tc.want {
			t.Errorf("Of(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// Profiling a loop that spends its time reseeding rng streams must
// attribute the majority of the profile to the rng layer, through the
// real runtime/pprof encoding.
func TestProfileAttributesHotLayer(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	rs := rng.NewReseeder()
	sink := 0.0
	for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
		for i := 0; i < 100; i++ {
			sink += rs.Reseed(int64(i)).Float64()
		}
	}
	pprof.StopCPUProfile()
	samples, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Skipf("only %d profile samples", len(samples))
	}
	shares := Shares(samples)
	if shares["rng"] < 0.5 {
		t.Errorf("rng share %.2f of %d samples, want the majority (shares %v, sink %v)", shares["rng"], len(samples), shares, sink)
	}
	sum := 0.0
	for _, n := range Names {
		sum += shares[n]
	}
	if math.Abs(sum-1) > 1e-9 || len(shares) != len(Names) {
		t.Errorf("shares sum to %v over %d layers, want 1 over %d", sum, len(shares), len(Names))
	}
}

func TestParseRejectsCorruptProfile(t *testing.T) {
	if _, err := Parse([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("truncated profile parsed without error")
	}
}
