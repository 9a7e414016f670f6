package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"cloudmcp/bench/layers"
)

// rep is one repetition's raw measurements. Every repetition runs in a
// fresh child process, which reports its rep as one JSON line.
type rep struct {
	SetupS  float64 `json:"setup_s"`
	WallS   float64 `json:"wall_s"`   // measured phase
	CPUS    float64 `json:"cpu_s"`    // process CPU in the measured phase
	Allocs  uint64  `json:"allocs"`   // heap allocations in the measured phase
	HeapMiB float64 `json:"heap_mib"` // live heap after a collection at the phase's end
	// Ops counts the workload's operations: simulated tasks, artifacts
	// for the suite, HTTP requests for serve-paced. OpsFailed counts
	// those that failed (simulated task errors are part of a batch
	// workload's correct output).
	Ops       int64              `json:"ops"`
	OpsFailed int64              `json:"ops_failed"`
	LatMS     []float64          `json:"lat_ms,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	Sim       map[string]float64 `json:"sim,omitempty"`

	// Traced repetitions only.
	CPUShares map[string]float64 `json:"cpu_shares,omitempty"`
	Registry  json.RawMessage    `json:"registry,omitempty"`

	// serve-paced only.
	Load  *loadStats `json:"load,omitempty"`
	LagMS float64    `json:"lag_ms,omitempty"` // worst paced-driver slip
}

// meter measures a phase's wall time, process CPU and allocations.
type meter struct {
	t0     time.Time
	cpu    float64
	allocs uint64
}

func startMeter() meter { return meter{t0: time.Now(), cpu: cpuSeconds(), allocs: heapAllocs()} }

// stop ends the phase. It then collects garbage to read the live heap,
// so whatever the caller still holds must be reachable after the call.
func (m meter) stop(r *rep) {
	r.WallS = time.Since(m.t0).Seconds()
	r.CPUS = cpuSeconds() - m.cpu
	r.Allocs = heapAllocs() - m.allocs
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.HeapMiB = float64(ms.HeapAlloc) / (1 << 20)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// profiler gathers CPU-profile samples over the phases it is started
// and stopped around — set-up and the measured phase, not the
// benchmark's own checks. A nil profiler does nothing.
type profiler struct {
	buf     bytes.Buffer
	samples []layers.Sample
}

func (p *profiler) start() error {
	if p == nil {
		return nil
	}
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	return nil
}

func (p *profiler) stop() error {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	samples, err := layers.Parse(p.buf.Bytes())
	p.samples = append(p.samples, samples...)
	return err
}

// tracedMinS is how long a traced repetition keeps repeating the
// workload, so the 100 Hz profiler gathers a few hundred samples.
const tracedMinS = 2.0

// runTraced repeats one workload's repetition under the CPU profiler
// with the metrics registry on, until tracedMinS has passed, and reports
// the per-iteration means. Every iteration must reproduce the digest.
func runTraced(name string, seed int64, quick bool) (rep, error) {
	var (
		last, sum rep
		iters     int
		prof      profiler
	)
	for t0 := time.Now(); iters == 0 || time.Since(t0).Seconds() < tracedMinS; iters++ {
		r, err := runOne(name, seed, quick, &prof)
		if err != nil {
			return rep{}, err
		}
		if iters > 0 && r.Digest != last.Digest {
			return rep{}, fmt.Errorf("%s: traced iterations disagree: digest %s then %s", name, last.Digest, r.Digest)
		}
		sum.WallS += r.WallS
		sum.CPUS += r.CPUS
		sum.Allocs += r.Allocs
		sum.Ops += r.Ops
		last = r
	}
	last.WallS = sum.WallS / float64(iters)
	last.CPUS = sum.CPUS / float64(iters)
	last.Allocs = sum.Allocs / uint64(iters)
	last.Ops = sum.Ops / int64(iters)
	last.CPUShares = layers.Shares(prof.samples)
	return last, nil
}

// runOne runs one in-process repetition of a workload, profiled when
// prof is non-nil.
func runOne(name string, seed int64, quick bool, prof *profiler) (rep, error) {
	switch name {
	case wSuite:
		return runSuite(seed, prof)
	case wServe:
		return runServe(seed, quick, prof)
	}
	return runBatch(name, seed, quick, prof)
}

// child is a running child process of this binary.
type child struct {
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	out      *bufio.Reader
	watchdog *time.Timer
}

// childTimeout bounds a child's life, so a hung repetition fails the run
// instead of stalling it; repetitions take seconds.
const childTimeout = 60 * time.Second

// spawn starts this binary in child mode with the given arguments and a
// fixed GOMAXPROCS, whatever the host, so runs compare.
func spawn(procs int, args ...string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start child %v: %w", args, err)
	}
	kill := func() { _ = cmd.Process.Kill() }
	return &child{cmd: cmd, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<20), watchdog: time.AfterFunc(childTimeout, kill)}, nil
}

// line reads the child's next line of output into v.
func (c *child) line(v any) error {
	b, err := c.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("read child output: %w", err)
	}
	return json.Unmarshal(b, v)
}

// finish closes the child's input, reads its last report into v (when v
// is non-nil) and waits for it to exit.
func (c *child) finish(v any) error {
	c.stdin.Close()
	var rerr error
	if v != nil {
		rerr = c.line(v)
	}
	if _, err := io.Copy(io.Discard, c.out); err != nil && rerr == nil {
		rerr = err
	}
	err := c.cmd.Wait()
	c.watchdog.Stop()
	if err != nil {
		return fmt.Errorf("child %v: %w", c.cmd.Args[1:], err)
	}
	return rerr
}

// childRep runs one repetition of a workload in a fresh child process on
// one processor. Every workload's work runs on one goroutine at a time:
// with two processors the concurrent collector made batch repetition
// times three times as variable (inter-quartile range 9.3% against 3.5%
// of the median over 16 deploy-loop repetitions on a 2-vCPU VM) without
// making them faster, and serve-paced's clients and server hand each
// request over inside one Go scheduler, with no thread to wake.
func childRep(name string, seed int64, quick, traced bool) (rep, error) {
	c, err := spawn(1, childArgs(name, seed, quick, traced)...)
	if err != nil {
		return rep{}, err
	}
	var r rep
	err = c.finish(&r)
	return r, err
}

func childArgs(name string, seed int64, quick, traced bool) []string {
	return []string{"-child", name, "-seed", fmt.Sprint(seed),
		fmt.Sprintf("-quick=%v", quick), fmt.Sprintf("-traced=%v", traced)}
}

// childMain is the child side: run what args name and report it as one
// JSON line on stdout.
func childMain(name string, seed int64, quick, traced bool) error {
	var (
		v   any
		err error
	)
	switch {
	case name == "seams":
		v, err = runSeams(seed, quick)
	case traced:
		v, err = runTraced(name, seed, quick)
	default:
		v, err = runOne(name, seed, quick, nil)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(v)
}
