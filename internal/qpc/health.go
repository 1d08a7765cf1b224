package qpc

import (
	"sync"
	"time"

	"mocha/internal/obs"
)

// Per-DAP health tracking and circuit breaking. Every transport outcome
// against a site is reported here; a run of consecutive transient
// failures trips the site's breaker open. An open breaker does not make
// the site unreachable — MOCHA has no replicas, so every plan that needs
// the site's data must still talk to it — it changes how the QPC spends
// effort there: the optimizer stops shipping code to the site (degraded
// fragments re-plan under data shipping, annotated in EXPLAIN), the
// retry path stops burning budget on it (one attempt, which doubles as
// the probe), and a broken stream is placed again at a sibling replica
// instead, when it has one.
// After OpenFor the breaker is half-open: retries are permitted again
// and the first success closes it.

// BreakerPolicy configures the per-site circuit breaker. The zero value
// takes defaults.
type BreakerPolicy struct {
	// FailureThreshold is the consecutive transient-failure count that
	// trips a site's breaker open. Default 3.
	FailureThreshold int
	// OpenFor is how long an open breaker refuses retries before going
	// half-open. Default 3s.
	OpenFor time.Duration

	// Now is an injection point for tests; nil means time.Now.
	Now func() time.Time
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = 3
	}
	if p.OpenFor <= 0 {
		p.OpenFor = 3 * time.Second
	}
	return p
}

func (p BreakerPolicy) now() time.Time {
	if p.Now != nil {
		return p.Now()
	}
	return time.Now()
}

// siteHealth is one site's rolling record.
type siteHealth struct {
	open     bool
	openedAt time.Time
	forced   bool // ForceOpen pins the breaker open until a Reset
	fails    int  // consecutive transient failures

	successes  int64
	failures   int64
	lastErr    string
	ewmaMicros float64 // rolling latency of successful operations
	picks      int64   // times PickReplica chose this site
}

// HealthRegistry tracks per-site health and breaker state for a QPC.
type HealthRegistry struct {
	pol BreakerPolicy

	mu    sync.Mutex
	sites map[string]*siteHealth

	opened    *obs.Counter
	reclosed  *obs.Counter
	openSites *obs.Gauge
}

func newHealthRegistry(pol BreakerPolicy, r *obs.Registry) *HealthRegistry {
	return &HealthRegistry{
		pol:       pol.withDefaults(),
		sites:     make(map[string]*siteHealth),
		opened:    r.Counter(obs.MQpcBreakerOpened),
		reclosed:  r.Counter(obs.MQpcBreakerReclosed),
		openSites: r.Gauge(obs.MQpcBreakerOpenSites),
	}
}

func (h *HealthRegistry) site(name string) *siteHealth {
	sh, ok := h.sites[name]
	if !ok {
		sh = &siteHealth{}
		h.sites[name] = sh
	}
	return sh
}

func (h *HealthRegistry) countOpen() int64 {
	var n int64
	for _, sh := range h.sites {
		if sh.open {
			n++
		}
	}
	return n
}

// ReportSuccess records a successful operation against the site. It
// closes an open breaker (the operation was the probe) unless the
// breaker was forced open.
func (h *HealthRegistry) ReportSuccess(site string, latency time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := h.site(site)
	sh.successes++
	sh.fails = 0
	if latency > 0 {
		const alpha = 0.3
		sh.ewmaMicros = alpha*float64(latency.Microseconds()) + (1-alpha)*sh.ewmaMicros
	}
	if sh.open && !sh.forced {
		sh.open = false
		h.reclosed.Inc()
		h.openSites.Set(h.countOpen())
	}
}

// ReportFailure records a transient transport failure against the site,
// tripping the breaker when the consecutive run reaches the threshold.
func (h *HealthRegistry) ReportFailure(site string, err error) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := h.site(site)
	sh.failures++
	sh.fails++
	if err != nil {
		sh.lastErr = err.Error()
	}
	if !sh.open && sh.fails >= h.pol.FailureThreshold {
		sh.open = true
		sh.openedAt = h.pol.now()
		h.opened.Inc()
		h.openSites.Set(h.countOpen())
	} else if sh.open {
		// A failed probe re-arms the open period.
		sh.openedAt = h.pol.now()
	}
}

// Degraded reports whether the site's breaker is open (including
// half-open: the site stays degraded for planning until a success
// closes the breaker). This is the optimizer's health oracle.
func (h *HealthRegistry) Degraded(site string) bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.site(site).open
}

// FailFast reports whether retries against the site should be skipped
// right now: the breaker is open and the half-open window has not been
// reached. The first attempt of an operation is always allowed — it is
// the probe.
func (h *HealthRegistry) FailFast(site string) bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := h.site(site)
	if !sh.open {
		return false
	}
	if sh.forced {
		return true
	}
	return h.pol.now().Sub(sh.openedAt) < h.pol.OpenFor
}

// PickReplica chooses which of a partition's replica sites should serve
// a read. Healthy sites (breaker closed) are preferred; among the
// eligible, the least-picked wins, spreading partition reads across a
// replica set without any per-query coordination. When every replica's
// breaker is open the least-picked of them all is returned — a plan
// still needs some site to try, and the attempt doubles as the probe.
func (h *HealthRegistry) PickReplica(sites []string) string {
	if len(sites) == 0 {
		return ""
	}
	if h == nil || len(sites) == 1 {
		return sites[0]
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for pass := 0; pass < 2; pass++ {
		var best *siteHealth
		bestName := ""
		for _, name := range sites {
			sh := h.site(name)
			if pass == 0 && sh.open {
				continue
			}
			if best == nil || sh.picks < best.picks {
				best, bestName = sh, name
			}
		}
		if best != nil {
			best.picks++
			return bestName
		}
	}
	return sites[0] // unreachable: pass 1 always finds a site
}

// State renders the site's breaker state: "closed", "open" or
// "half-open".
func (h *HealthRegistry) State(site string) string {
	if h == nil {
		return "closed"
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := h.site(site)
	switch {
	case !sh.open:
		return "closed"
	case !sh.forced && h.pol.now().Sub(sh.openedAt) >= h.pol.OpenFor:
		return "half-open"
	default:
		return "open"
	}
}

// ForceOpen pins the site's breaker open until Reset — operational
// override and test hook.
func (h *HealthRegistry) ForceOpen(site string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := h.site(site)
	if !sh.open {
		sh.open = true
		sh.openedAt = h.pol.now()
		h.opened.Inc()
	}
	sh.forced = true
	h.openSites.Set(h.countOpen())
}

// Reset closes the site's breaker and clears its failure run.
func (h *HealthRegistry) Reset(site string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sh := h.site(site)
	sh.open = false
	sh.forced = false
	sh.fails = 0
	h.openSites.Set(h.countOpen())
}
