package main

import (
	"testing"

	"mocha/pkg/mocha"
)

func TestStatsTrailer(t *testing.T) {
	ran := mocha.QueryStats{
		TotalMS: 16.3, DBMS: 0.6, CPUMS: 5.2, NetMS: 1.1, MiscMS: 8.7,
		CVDA: 372728, CVDT: 327, CodeClassesShipped: 2,
	}
	for _, c := range []struct {
		name  string
		stats mocha.QueryStats
		want  string
	}{
		{"text verb", mocha.QueryStats{}, ""},
		{"executed query", ran, "time 16.3ms (db 0.6 cpu 5.2 net 1.1 misc 8.7) | moved 327 bytes | CVRF 0.000877 | shipped 2 classes\n"},
	} {
		if got := statsTrailer(&c.stats); got != c.want {
			t.Errorf("%s: trailer %q, want %q", c.name, got, c.want)
		}
	}
}

func TestReleaseVerb(t *testing.T) {
	good := map[string][]string{
		"SHOW RELEASES":           {"releases", "list"},
		"SHOW RELEASES AvgEnergy": {"releases", "show", "AvgEnergy"},
		"SHOW ROLLOUTS":           {"rollouts"},
		"VERIFY Perimeter":        {"verify", "Perimeter"},
	}
	for want, args := range good {
		got, err := releaseVerb(args)
		if err != nil || got != want {
			t.Errorf("releaseVerb(%v) = %q, %v; want %q", args, got, err, want)
		}
	}
	bad := [][]string{
		{"releases"},
		{"releases", "show"},
		{"releases", "drop", "AvgEnergy"},
		{"rollouts", "extra"},
		{"verify"},
		{"verify", "Perimeter", "extra"},
		{"frobnicate"},
	}
	for _, args := range bad {
		if _, err := releaseVerb(args); err == nil {
			t.Errorf("releaseVerb(%v) accepted", args)
		}
	}
}
