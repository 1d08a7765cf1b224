package qpc

import (
	"testing"
	"time"

	"mocha/internal/obs"
)

// testHealth builds a registry on a manual clock so breaker timing is
// deterministic.
func testHealth(pol BreakerPolicy) (*HealthRegistry, *time.Time) {
	now := time.Unix(1000, 0)
	pol.Now = func() time.Time { return now }
	return newHealthRegistry(pol, obs.NewRegistry()), &now
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	h, _ := testHealth(BreakerPolicy{FailureThreshold: 3})
	for i := 0; i < 2; i++ {
		h.ReportFailure("s")
		if h.Open("s") {
			t.Fatalf("breaker open after %d failures, threshold is 3", i+1)
		}
	}
	h.ReportFailure("s")
	if !h.Open("s") || h.State("s") != "open" {
		t.Fatalf("breaker should be open at the threshold, state %q", h.State("s"))
	}
	if !h.FailFast("s") {
		t.Fatal("freshly opened breaker should fail fast")
	}
}

func TestBreakerSuccessResetsRun(t *testing.T) {
	h, _ := testHealth(BreakerPolicy{FailureThreshold: 3})
	h.ReportFailure("s")
	h.ReportFailure("s")
	h.ReportSuccess("s")
	h.ReportFailure("s")
	h.ReportFailure("s")
	if h.Open("s") {
		t.Fatal("interleaved success should reset the consecutive-failure run")
	}
}

func TestBreakerHalfOpenThenCloses(t *testing.T) {
	h, now := testHealth(BreakerPolicy{FailureThreshold: 1, OpenFor: 3 * time.Second})
	h.ReportFailure("s")
	if got := h.State("s"); got != "open" {
		t.Fatalf("state %q, want open", got)
	}
	*now = now.Add(3 * time.Second)
	if got := h.State("s"); got != "half-open" {
		t.Fatalf("state %q after OpenFor elapsed, want half-open", got)
	}
	if h.FailFast("s") {
		t.Fatal("half-open breaker must allow the probe")
	}
	// Half-open is still open: only a success closes the breaker.
	if !h.Open("s") {
		t.Fatal("half-open breaker should still read as open")
	}
	h.ReportSuccess("s")
	if h.Open("s") || h.State("s") != "closed" {
		t.Fatalf("successful probe should close the breaker, state %q", h.State("s"))
	}
}

func TestBreakerFailedProbeReArms(t *testing.T) {
	h, now := testHealth(BreakerPolicy{FailureThreshold: 1, OpenFor: 3 * time.Second})
	h.ReportFailure("s")
	*now = now.Add(3 * time.Second)
	if h.FailFast("s") {
		t.Fatal("probe window should be open")
	}
	h.ReportFailure("s") // the probe failed
	if !h.FailFast("s") {
		t.Fatal("failed probe must re-arm the open period")
	}
	if got := h.State("s"); got != "open" {
		t.Fatalf("state %q after failed probe, want open", got)
	}
}

func TestBreakerForceOpenPinsUntilReset(t *testing.T) {
	h, now := testHealth(BreakerPolicy{OpenFor: time.Second})
	h.ForceOpen("s")
	*now = now.Add(time.Hour)
	if !h.FailFast("s") || h.State("s") != "open" {
		t.Fatal("forced breaker must not half-open with time")
	}
	h.ReportSuccess("s")
	if !h.Open("s") {
		t.Fatal("success must not close a forced breaker")
	}
	h.Reset("s")
	if h.Open("s") || h.State("s") != "closed" {
		t.Fatal("Reset should close and unpin the breaker")
	}
}

func TestBreakerNilRegistryIsSafe(t *testing.T) {
	var h *HealthRegistry
	h.ReportFailure("s")
	h.ReportSuccess("s")
	h.ForceOpen("s")
	h.Reset("s")
	if h.Open("s") || h.FailFast("s") || h.State("s") != "closed" {
		t.Fatal("nil registry must behave as all-healthy")
	}
}

func TestBreakerMetricsTrackOpens(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHealthRegistry(BreakerPolicy{FailureThreshold: 1}, reg)
	h.ReportFailure("a")
	h.ReportFailure("b")
	if got := reg.Gauge("qpc_breaker_open_sites").Value(); got != 2 {
		t.Fatalf("open-sites gauge %v, want 2", got)
	}
	h.ReportSuccess("a")
	if got := reg.Counter("qpc_breaker_reclosed").Value(); got != 1 {
		t.Fatalf("reclosed counter %d, want 1", got)
	}
	if got := reg.Counter("qpc_breaker_opened").Value(); got != 2 {
		t.Fatalf("opened counter %d, want 2", got)
	}
	if got := reg.Gauge("qpc_breaker_open_sites").Value(); got != 1 {
		t.Fatalf("open-sites gauge %v after reclose, want 1", got)
	}
}
