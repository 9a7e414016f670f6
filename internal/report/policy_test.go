package report

import (
	"reflect"
	"testing"
)

// A group whose best goodput is 0 adds nothing to any score but still
// counts in each policy's mean, and a policy with no results ranks last
// with zeros.
func TestRankPoliciesZeroGroupAndEmptyPolicy(t *testing.T) {
	results := []PolicyResult{
		{Policy: "a", Group: "busy", GoodPerHour: 100, P99S: 2, Moves: 4, Errors: 1},
		{Policy: "b", Group: "busy", GoodPerHour: 50, P99S: 4, Moves: 0, Errors: 3},
		{Policy: "a", Group: "dead", GoodPerHour: 0, P99S: 6, Moves: 2, Errors: 5},
		{Policy: "b", Group: "dead", GoodPerHour: 0, P99S: 8, Moves: 1, Errors: 7},
	}
	got := RankPolicies([]string{"idle", "b", "a"}, results)
	want := []PolicyRow{
		{Rank: 1, Policy: "a", Score: 0.5, GoodPerHour: 50, P99S: 4, Moves: 3, Errors: 6},
		{Rank: 2, Policy: "b", Score: 0.25, GoodPerHour: 25, P99S: 6, Moves: 0.5, Errors: 10},
		{Rank: 3, Policy: "idle"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ranking:\n got %+v\nwant %+v", got, want)
	}
}

// Equal scores order by name, whatever order the policies were given in.
func TestRankPoliciesTiesOrderByName(t *testing.T) {
	results := []PolicyResult{
		{Policy: "x", Group: "g", GoodPerHour: 10},
		{Policy: "w", Group: "g", GoodPerHour: 10},
	}
	var names []string
	for _, r := range RankPolicies([]string{"x", "w"}, results) {
		if r.Score != 1 {
			t.Fatalf("%s: score %v, want 1", r.Policy, r.Score)
		}
		names = append(names, r.Policy)
	}
	if want := []string{"w", "x"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("order %v, want %v", names, want)
	}
}
