package policy

// fixedAdmission is the default: the configured base limit, untouched.
type fixedAdmission struct{}

// FixedAdmission returns the identity admission policy.
func FixedAdmission() AdmissionPolicy { return fixedAdmission{} }

func (fixedAdmission) MaxInFlight(base, hosts, shards int) int { return base }

// conservativeAdmission halves the base limit: admit less, queue at
// the door instead of inside the plane — the classic latency-for-
// throughput admission trade.
type conservativeAdmission struct{}

// ConservativeAdmission returns the half-base admission policy.
func ConservativeAdmission() AdmissionPolicy { return conservativeAdmission{} }

func (conservativeAdmission) MaxInFlight(base, hosts, shards int) int {
	if base/2 < 1 {
		return 1
	}
	return base / 2
}

// perHostAdmission scales the limit with the deployment: two in-flight
// operations per host per shard, floored at 8 — small fleets admit
// less than the fixed base, big fleets admit more.
type perHostAdmission struct{}

// PerHostAdmission returns the topology-scaled admission policy.
func PerHostAdmission() AdmissionPolicy { return perHostAdmission{} }

func (perHostAdmission) MaxInFlight(base, hosts, shards int) int {
	if shards < 1 {
		shards = 1
	}
	limit := 2 * (hosts / shards)
	if limit < 8 {
		limit = 8
	}
	return limit
}
