// Package queuetheory provides closed-form M/M/c queueing results
// (Erlang C) used to cross-validate the simulator: the management
// server's thread pool under Poisson load is an M/M/c station, so the
// simulated wait times must match the analytic values within sampling
// error. The validation tests in this package are part of the evidence
// that the control-plane saturation curves the experiments report are
// queueing behaviour, not simulator artifacts.
package queuetheory

import (
	"fmt"
	"math"
)

// MMc describes an M/M/c queue: Poisson arrivals at rate lambda, c
// servers with exponential service at rate mu each.
type MMc struct {
	Lambda float64 // arrivals per second
	Mu     float64 // service completions per server-second
	C      int     // servers
}

// Rho returns the offered load per server, lambda/(c*mu).
func (q MMc) Rho() float64 { return q.Lambda / (float64(q.C) * q.Mu) }

// Stable reports whether the queue has a steady state (rho < 1).
func (q MMc) Stable() bool { return q.Rho() < 1 }

func (q MMc) validate() error {
	if q.Lambda <= 0 || q.Mu <= 0 || q.C <= 0 {
		return fmt.Errorf("queuetheory: bad M/M/c %+v", q)
	}
	return nil
}

// ErlangC returns the probability an arriving customer must wait
// (all c servers busy), the Erlang C formula. It panics on invalid
// parameters and returns 1 for unstable queues.
func (q MMc) ErlangC() float64 {
	if err := q.validate(); err != nil {
		panic(err)
	}
	if !q.Stable() {
		return 1
	}
	a := q.Lambda / q.Mu // offered load in Erlangs
	c := float64(q.C)
	// Compute the denominator iteratively to avoid factorial overflow:
	// sum_{k=0}^{c-1} a^k/k! + a^c/c! * 1/(1-rho)
	term := 1.0 // a^0/0!
	sum := term
	for k := 1; k < q.C; k++ {
		term *= a / float64(k)
		sum += term
	}
	top := term * a / c // a^c/c!
	top /= 1 - q.Rho()
	return top / (sum + top)
}

// MeanWait returns the expected time in queue (excluding service),
// Wq = C(c, a) / (c*mu - lambda). Infinite for unstable queues.
func (q MMc) MeanWait() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return q.ErlangC() / (float64(q.C)*q.Mu - q.Lambda)
}

// MeanQueueLen returns the expected number waiting, Lq = lambda * Wq
// (Little's law). Infinite for unstable queues.
func (q MMc) MeanQueueLen() float64 {
	if !q.Stable() {
		return math.Inf(1)
	}
	return q.Lambda * q.MeanWait()
}

// Utilization returns the per-server busy fraction, equal to Rho for a
// stable queue.
func (q MMc) Utilization() float64 {
	r := q.Rho()
	if r > 1 {
		return 1
	}
	return r
}
