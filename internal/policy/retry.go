package policy

import "cloudmcp/internal/mgmt"

// FixedRetry is the default retry policy, mgmt.DefaultRetryPolicy():
// 4 attempts, 1 s base backoff doubling per attempt, 25% deterministic
// jitter, 10 min deadline.
func FixedRetry() mgmt.RetryPolicy { return mgmt.DefaultRetryPolicy() }

// EagerRetry retries more and backs off less: 6 attempts from a 200 ms
// base with a gentler 1.5x multiplier — recovers fast from transient
// faults, amplifies load under sustained ones.
func EagerRetry() mgmt.RetryPolicy {
	return mgmt.RetryPolicy{MaxAttempts: 6, BaseBackoff: 0.2, Multiplier: 1.5, DeterministicJitter: 0.25, Deadline: 600}
}

// AdaptiveRetry is FixedRetry with fault-ratio-scaled backoff: as the
// plane's observed fault ratio climbs, retries stretch their backoff
// proportionally, shedding retry amplification exactly when the plane
// is sickest.
func AdaptiveRetry() mgmt.RetryPolicy {
	return mgmt.RetryPolicy{MaxAttempts: 4, BaseBackoff: 1, Multiplier: 2, DeterministicJitter: 0.25, Deadline: 600, Adaptive: true}
}

// NoRetry gives every operation one attempt: the control that shows
// what retries buy (and cost) at a given fault rate.
func NoRetry() mgmt.RetryPolicy {
	return mgmt.RetryPolicy{MaxAttempts: 1, BaseBackoff: 1, Multiplier: 2, Deadline: 600}
}
