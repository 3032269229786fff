package main

import (
	"strings"
	"testing"
	"time"
)

// Negative campaign bounds are named errors; zero and positive ones pass.
func TestCheckCampaignBounds(t *testing.T) {
	cases := []struct {
		fuzz, cells, workers int
		dur                  time.Duration
		want                 string // "" = accepted
	}{
		{0, 0, 0, 0, ""},
		{100, 300, 2, time.Minute, ""},
		{-1, 0, 0, 0, "-fuzz -1: the repetition count is negative"},
		{0, -5, 0, 0, "-soakcells -5: the cell bound is negative"},
		{0, 0, -2, 0, "-soakworkers -2: the worker count is negative"},
		{0, 0, 0, -time.Second, "-soakdur -1s: the time bound is negative"},
	}
	for _, c := range cases {
		err := checkCampaignBounds(c.fuzz, c.cells, c.workers, c.dur)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one containing %q", c, err, c.want)
		}
	}
}
