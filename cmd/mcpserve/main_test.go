package main

import (
	"strings"
	"testing"
	"time"
)

func TestValidateServeFlags(t *testing.T) {
	cases := []struct {
		ratio, quantum float64
		orgs           int
		duration       time.Duration
		ok             bool
	}{
		{60, 0.25, 8, 0, true},
		{0, 0.25, 8, 0, true}, // free-run is legal (tests use it)
		{600, 1, 24, 30 * time.Second, true},
		{-1, 0.25, 8, 0, false},
		{60, 0, 8, 0, false},
		{60, -0.5, 8, 0, false},
		{60, 0.25, 0, 0, false},
		{60, 0.25, 8, -time.Second, false},
	}
	for _, c := range cases {
		err := validateServeFlags(c.ratio, c.quantum, c.orgs, c.duration)
		if (err == nil) != c.ok {
			t.Errorf("validateServeFlags(%g, %g, %d, %v) = %v, want ok=%v",
				c.ratio, c.quantum, c.orgs, c.duration, err, c.ok)
		}
	}
}

func TestValidateServeFlagsMessagesNameTheFlag(t *testing.T) {
	if err := validateServeFlags(-1, 0.25, 8, 0); err == nil || !strings.Contains(err.Error(), "-ratio") {
		t.Fatalf("ratio error = %v, want it to name -ratio", err)
	}
	if err := validateServeFlags(60, 0, 8, 0); err == nil || !strings.Contains(err.Error(), "-quantum") {
		t.Fatalf("quantum error = %v, want it to name -quantum", err)
	}
	if err := validateServeFlags(60, 0.25, 0, 0); err == nil || !strings.Contains(err.Error(), "-orgs") {
		t.Fatalf("orgs error = %v, want it to name -orgs", err)
	}
}
