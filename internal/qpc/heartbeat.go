package qpc

import (
	"context"
	"time"
)

// Background site heartbeating. Breakers normally learn about a dead
// DAP only when a query pays the price of discovering it. With
// replicated placement the QPC can afford to know earlier: a prober
// dials and pings every catalog site on a fixed interval, feeding
// the same health registry the query path reports to. Enough missed
// heartbeats trip the site's breaker, so PickReplica demotes the
// replica — new queries route around the corpse, and queries in flight
// fail over on their next frame.

// heartbeat is the prober's lifecycle handle.
type heartbeat struct {
	stop chan struct{}
	done chan struct{}
}

// startHeartbeat launches the prober goroutine.
func startHeartbeat(s *Server, interval time.Duration) *heartbeat {
	hb := &heartbeat{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hb.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hb.stop:
				return
			case <-t.C:
				s.probeSites(hb.stop)
			}
		}
	}()
	return hb
}

func (hb *heartbeat) stopAndWait() {
	close(hb.stop)
	<-hb.done
}

// probeSites dials and pings every catalog site once, reporting
// each outcome to the health registry. A probe is bounded by the frame
// timeout (or a 2s default) so a black-holed site cannot wedge the
// prober.
func (s *Server) probeSites(stop <-chan struct{}) {
	bound := s.cfg.FrameTimeout
	if bound <= 0 {
		bound = 2 * time.Second
	}
	for _, site := range s.cfg.Cat.Sites() {
		select {
		case <-stop:
			return
		default:
		}
		s.met.heartbeatProbes.Inc()
		ctx, cancel := context.WithTimeout(context.Background(), bound)
		start := time.Now()
		ds, err := s.openSession(ctx, site.Name)
		if err == nil {
			err = ds.ping()
			ds.close()
		}
		cancel()
		if err != nil {
			s.met.heartbeatFailures.Inc()
			s.health.ReportFailure(site.Name, err)
			s.cfg.Logf("qpc: heartbeat to %s failed: %v", site.Name, err)
			continue
		}
		s.health.ReportSuccess(site.Name, time.Since(start))
	}
}
