package core

import (
	"io"
	"runtime"
	"testing"
	"time"
)

// TestRunAllLeavesNoCoroutines runs the quick suite and checks that no
// goroutine outlives it. Every simulation process is a coroutine on a
// goroutine of its own that only its Env's Close ends, so an experiment
// that drops a cloud without closing it leaves its processes parked for
// the life of the program and fails here.
func TestRunAllLeavesNoCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	if err := RunAllWith(io.Discard, 1, true, RunAllOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	// A pool worker can still be returning after the pool's Wait.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines after the quick suite, %d before", n, base)
	}
}
