package core

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
)

// TestSuiteRunMatchesStandaloneExec checks that sharing simulations
// inside a suite run changes no byte: the quick suite through RunAllWith
// renders, at one worker and at eight, exactly what each experiment's
// standalone Exec renders, in order.
func TestSuiteRunMatchesStandaloneExec(t *testing.T) {
	var want bytes.Buffer
	for _, e := range Experiments() {
		r, err := e.Exec(1, true, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Render(&want); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&want)
	}
	for _, workers := range []int{1, 8} {
		var got bytes.Buffer
		if err := RunAllWith(&got, 1, true, RunAllOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("workers=%d: the suite run's %d bytes differ from the standalone renderings' %d", workers, got.Len(), want.Len())
		}
	}
}

// TestSuiteRunSimulatesSharedRunsOnce checks where the sharing happens.
// It seeds a suite run's table with each shared simulation, wrapped to
// count its readers: E1, E2 and E3 must each read every profile's trace
// and E7 and E9 the load sweep, and nothing else may join the table, so
// neither E2, E3 nor E9 simulates on its own.
func TestSuiteRunSimulatesSharedRunsOnce(t *testing.T) {
	quick := func(name string) Params { // the Params exec runs name with
		for _, e := range Experiments() {
			if e.Name == name {
				return Params{Seed: 1, HorizonS: e.HorizonS * 0.1, Workers: 1}
			}
		}
		panic(name)
	}
	type shared struct {
		run   func() (any, error)
		reads int
	}
	for _, workers := range []int{1, 8} {
		want := map[string]*shared{}
		p := quick("E7")
		want[fmt.Sprint("load", e7e9.rates, "@", p.HorizonS)] = &shared{run: func() (any, error) { return e7e9.run(p) }, reads: 2}
		for _, pr := range profiles() {
			p := quick("E1")
			want[fmt.Sprint(pr.Name, "@", p.HorizonS)] = &shared{run: func() (any, error) { return p.profileTrace(pr) }, reads: 3}
		}
		var (
			runs  sync.Map
			mu    sync.Mutex
			reads = map[string]int{}
		)
		for key, s := range want {
			once := sync.OnceValues(s.run)
			runs.Store(key, func() (any, error) {
				mu.Lock()
				reads[key]++
				mu.Unlock()
				return once()
			})
		}
		if err := runAll(io.Discard, 1, true, RunAllOptions{Workers: workers}, &runs); err != nil {
			t.Fatal(err)
		}
		n := 0
		runs.Range(func(any, any) bool { n++; return true })
		if n != len(want) {
			t.Errorf("workers=%d: %d shared runs, want %d", workers, n, len(want))
		}
		for key, s := range want {
			if reads[key] != s.reads {
				t.Errorf("workers=%d: %s read %d times, want %d", workers, key, reads[key], s.reads)
			}
		}
	}
}
