package qpc

// The START exchange seen from the QPC's side of the wire: how many
// times the conversation turns around before a stream's first frame,
// what a retried START leaves behind at the DAP, and what each refusal
// looks like by the time it reaches the caller.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mocha/internal/core"
	"mocha/internal/dap"
	"mocha/internal/netsim"
	"mocha/internal/types"
	"mocha/internal/vm"
	"mocha/internal/wire"
)

// frameScan follows one direction of a framed byte stream. onHeader,
// when set, sees each frame's type as its 5-byte header completes;
// onFrame, when set, its type and payload once the payload is in.
type frameScan struct {
	hdr  [5]byte
	n    int
	left int // payload bytes of the current frame still to come
	body []byte
}

func (s *frameScan) feed(p []byte, onHeader func(wire.MsgType), onFrame func(wire.MsgType, []byte)) {
	for len(p) > 0 {
		if s.n < len(s.hdr) {
			s.hdr[s.n] = p[0]
			s.n++
			p = p[1:]
			if s.n < len(s.hdr) {
				continue
			}
			s.left, s.body = int(binary.BigEndian.Uint32(s.hdr[:4])), s.body[:0]
			if onHeader != nil {
				onHeader(wire.MsgType(s.hdr[4]))
			}
		} else {
			n := min(s.left, len(p))
			if onFrame != nil {
				s.body = append(s.body, p[:n]...)
			}
			s.left -= n
			p = p[n:]
		}
		if s.left == 0 {
			s.n = 0
			if onFrame != nil {
				onFrame(wire.MsgType(s.hdr[4]), s.body)
			}
		}
	}
}

// startRecord is what one START cost before its stream began.
type startRecord struct {
	flips int   // write→read turnarounds before the first stream frame
	blobs int   // DEPLOY_CODE frames sent
	keys  bool  // a SEMIJOIN_KEYS frame rode behind the START
	skip  int64 // the delivered tuples the START said to skip
	done  bool
}

// startLog collects the records of every connection a harness dials.
type startLog struct {
	mu      sync.Mutex
	records []*startRecord
}

func (l *startLog) snapshot() []startRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]startRecord, len(l.records))
	for i, r := range l.records {
		out[i] = *r
	}
	return out
}

// wrap installs the log's counting connection as cfg's dialer.
func (l *startLog) wrap(cfg *Config) {
	dial := cfg.Dial
	cfg.Dial = func(addr string) (net.Conn, error) {
		conn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: conn, log: l}, nil
	}
}

// countingConn watches a QPC→DAP connection from the dialling side, the
// way the benchmark's set-up driver does: every START opens a record,
// and each read that follows a write is one turnaround of it until the
// stream's first frame shows up.
type countingConn struct {
	net.Conn
	log       *startLog
	out, in   frameScan
	cur       *startRecord
	wroteLast bool
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	c.out.feed(p, nil, func(t wire.MsgType, body []byte) {
		switch t {
		case wire.MsgStart:
			var req core.Start
			_ = wire.DecodeXML(body, &req)
			c.cur = &startRecord{skip: req.Skip}
			c.log.records = append(c.log.records, c.cur)
		case wire.MsgDeployCode:
			c.cur.blobs++
		case wire.MsgSemiJoinKeys:
			c.cur.keys = true
		}
	})
	c.wroteLast = true
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.log.mu.Lock()
	defer c.log.mu.Unlock()
	if n == 0 || c.cur == nil {
		return n, err
	}
	if c.wroteLast && !c.cur.done {
		c.wroteLast = false
		c.cur.flips++
	}
	c.in.feed(p[:n], func(t wire.MsgType) {
		c.cur.done = c.cur.done || t == wire.MsgTupleBatch || t == wire.MsgEOS
	}, nil)
	return n, err
}

// TestStartRoundTrips pins the cost the protocol promises of putting a
// stream on a connection: one turnaround when the DAP holds every class
// (the ack, and the stream behind it), two when it does not (the ack,
// then the classes and the stream), still one for a semi-join fragment,
// whose key set goes out behind the START before the ack is read — and
// one for a stream placed again after its connection broke, whether at
// the DAP that was serving it, at that site's restarted DAP, or at a
// sibling replica: each says how many tuples to skip.
func TestStartRoundTrips(t *testing.T) {
	var log startLog
	h := newChaosHarness(t, func(c *Config) {
		forceCodeShip(c)
		log.wrap(c)
	})
	run := func(sql string) []startRecord {
		t.Helper()
		before := len(log.snapshot())
		if _, err := h.executeWithin(t, 5*time.Second, sql); err != nil {
			t.Fatal(err)
		}
		recs := log.snapshot()[before:]
		for i, r := range recs {
			if !r.done {
				t.Fatalf("%s: START %d never reached its stream: %+v", sql, i, r)
			}
		}
		return recs
	}

	cold := run(codeShipQuery)
	if len(cold) != 1 || cold[0].blobs != 1 || cold[0].flips != 2 {
		t.Errorf("cold START = %+v, want one class shipped in 2 turnarounds", cold)
	}
	warm := run(codeShipQuery)
	if len(warm) != 1 || warm[0].blobs != 0 || warm[0].flips != 1 {
		t.Errorf("warm START = %+v, want no class shipped and 1 turnaround", warm)
	}
	// The two-site join runs as a semi-join under code shipping: per site
	// a key projection, then the fragment with the common keys behind it.
	join := run(joinQuery)
	var keyed int
	for _, r := range join {
		if r.flips != 1 {
			t.Errorf("semi-join START %+v took %d turnarounds, want 1", r, r.flips)
		}
		if r.keys {
			keyed++
		}
	}
	if len(join) != 4 || keyed != 2 {
		t.Errorf("semi-join issued %d STARTs, %d with keys; want 4 and 2: %+v", len(join), keyed, join)
	}

	// Re-placements: each row breaks one stream once, mid-flight, and the
	// START that follows must reach its first frame in one turn.
	for _, tc := range []struct {
		name    string
		run     func(t *testing.T, tune func(*Config)) (*Server, error)
		starts  int    // STARTs in all, the re-placement last
		counter string // what the QPC counts the re-placement as
	}{
		{"recovery", func(t *testing.T, tune func(*Config)) (*Server, error) {
			h := newResumeHarness(t, tune, nil)
			h.network.SetFault("dap1", &netsim.FaultPlan{DropFirstConnAfterBytes: 80 << 10})
			_, err := h.executeWithin(t, 10*time.Second, streamQuery)
			return h.srv, err
		}, 2, "qpc_stream_resumes"},
		{"recovery, DAP restarted", func(t *testing.T, tune func(*Config)) (*Server, error) {
			var h *resumeHarness
			h = newResumeHarness(t, func(c *Config) {
				tune(c)
				restartOnRedial(c, "dap1", 2, func() { h.dap.restart() })
			}, nil)
			h.network.SetFault("dap1", &netsim.FaultPlan{DropFirstConnAfterBytes: 80 << 10})
			_, err := h.executeWithin(t, 10*time.Second, streamQuery)
			return h.srv, err
		}, 2, "qpc_stream_resumes"},
		{"failover to sibling", func(t *testing.T, tune func(*Config)) (*Server, error) {
			h := newPartitionHarness(t, func(c *Config) {
				c.Breaker = BreakerPolicy{FailureThreshold: 1}
				tune(c)
			})
			h.network.SetFault("dap1", &netsim.FaultPlan{DropFirstConnAfterBytes: 40 << 10})
			_, err := h.executeWithin(t, 10*time.Second, partScanQuery)
			return h.srv, err
		}, 3, "qpc_replica_failovers"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log startLog
			srv, err := tc.run(t, log.wrap)
			if err != nil {
				t.Fatal(err)
			}
			recs := log.snapshot()
			if len(recs) != tc.starts {
				t.Fatalf("%d STARTs, want %d: %+v", len(recs), tc.starts, recs)
			}
			again := recs[len(recs)-1]
			if !again.done || again.flips != 1 || again.blobs != 0 || again.skip <= 0 {
				t.Errorf("re-placement START = %+v, want a prefix skipped and its stream after 1 turnaround", again)
			}
			if n := srv.Metrics().Counter(tc.counter).Value(); n != 1 {
				t.Errorf("%s = %d, want 1", tc.counter, n)
			}
		})
	}
}

// ackEater fails a connection's first read after swallowing what
// arrived: the peer's write completed, the bytes are lost.
type ackEater struct {
	net.Conn
	once sync.Once
}

func (c *ackEater) Read(p []byte) (int, error) {
	eaten := false
	c.once.Do(func() { eaten = true })
	if !eaten {
		return c.Conn.Read(p)
	}
	c.Conn.Read(p)
	c.Conn.Close()
	return 0, netsim.ErrInjectedDrop
}

// cutConn breaks a QPC→DAP connection at a chosen frame of the stream it
// carries: once the START_ACK and then `after` batch frames have come in
// — behind the last START written, or with keyed set behind the last one
// a key set rode behind — the read that brought the last of them is the
// connection's last. Before it fails the next read it swallows `lose`
// more bytes: frames the DAP sent, and believes delivered, that the QPC
// never sees.
type cutConn struct {
	net.Conn
	keyed bool
	after int
	lose  int

	out, in  frameScan
	keysSent bool
	armed    bool
	seen     int
}

func (c *cutConn) Write(p []byte) (int, error) {
	c.out.feed(p, func(t wire.MsgType) {
		switch t {
		case wire.MsgStart:
			c.armed, c.keysSent, c.seen = false, false, 0
		case wire.MsgSemiJoinKeys:
			c.keysSent = true
		}
	}, nil)
	return c.Conn.Write(p)
}

func (c *cutConn) Read(p []byte) (int, error) {
	if c.armed && c.seen >= c.after {
		for buf := make([]byte, 4<<10); c.lose > 0; {
			n, err := c.Conn.Read(buf[:min(len(buf), c.lose)])
			if c.lose -= n; err != nil {
				break
			}
		}
		c.Conn.Close()
		return 0, netsim.ErrInjectedDrop
	}
	n, err := c.Conn.Read(p)
	c.in.feed(p[:n], nil, func(t wire.MsgType, _ []byte) {
		switch {
		case t == wire.MsgStartAck:
			c.armed = !c.keyed || c.keysSent
		case c.armed && t == wire.MsgTupleBatch:
			c.seen++
		}
	})
	return n, err
}

// cutDial wraps cfg's dialer so that the nth connection it opens (from 1)
// to addr is the given cutConn; every other connection is left alone.
func cutDial(cfg *Config, addr string, nth int, cut *cutConn) {
	dial, dialed := cfg.Dial, 0
	var mu sync.Mutex
	cfg.Dial = func(a string) (net.Conn, error) {
		conn, err := dial(a)
		mu.Lock()
		defer mu.Unlock()
		if err != nil || a != addr {
			return conn, err
		}
		if dialed++; dialed == nth {
			cut.Conn = conn
			return cut, nil
		}
		return conn, nil
	}
}

// TestRetriedStartReplacesStaleExecution loses a START_ACK in flight:
// the DAP has acked and begun to run when the QPC's read fails, so the
// retry names a stream the DAP is still running on the dead connection.
// The retry is answered like any START — rows and volumes as on a clean
// run — and the stale execution dies at its first write, never running
// to its end.
func TestRetriedStartReplacesStaleExecution(t *testing.T) {
	clean := newResumeHarness(t, nil, nil)
	base, err := clean.executeWithin(t, 10*time.Second, streamQuery)
	if err != nil {
		t.Fatal(err)
	}

	var dials int
	h := newResumeHarness(t, func(c *Config) {
		dial := c.Dial
		c.Dial = func(addr string) (net.Conn, error) {
			conn, err := dial(addr)
			if dials++; err != nil || dials > 1 {
				return conn, err
			}
			return &ackEater{Conn: conn}, nil
		}
	}, nil)
	res, err := h.executeWithin(t, 10*time.Second, streamQuery)
	if err != nil {
		t.Fatalf("retried START failed: %v", err)
	}
	if retries := h.qpcCounter("qpc_retries"); retries != 1 {
		t.Errorf("qpc_retries = %d, want 1 (the ack was lost once)", retries)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(base.Rows) {
		t.Errorf("rows after the retried START differ from the clean run")
	}
	if res.Stats.CVDT != base.Stats.CVDT || res.Stats.CVDA != base.Stats.CVDA {
		t.Errorf("volumes after retry: CVDT %d CVDA %d, clean run %d / %d",
			res.Stats.CVDT, res.Stats.CVDA, base.Stats.CVDT, base.Stats.CVDA)
	}
	if n := h.dapReg.Counter("dap_activations").Value(); n != 1 {
		t.Errorf("dap_activations = %d, want 1: the stale execution must not run to its end", n)
	}
}

// TestRefusedClassKeepsItsIdentity ships a class the DAP's limits refuse.
// With no per-class ack the refusal arrives where the stream would
// begin; it must still be the verifier's own words in a RemoteError the
// retry machinery leaves alone, count as a verify reject, and never
// reach the cache.
func TestRefusedClassKeepsItsIdentity(t *testing.T) {
	h := newResumeHarness(t, forceCodeShip, func(c *dap.Config) {
		c.Limits = vm.Limits{MaxStack: 1}
	})
	_, err := h.executeWithin(t, 5*time.Second, codeShipQuery)
	var re *wire.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "MaxStack") {
		t.Fatalf("err = %v, want a RemoteError carrying the MaxStack limit error", err)
	}
	if retries := h.qpcCounter("qpc_retries"); retries != 0 {
		t.Errorf("qpc_retries = %d: a refused class is not a transient failure", retries)
	}
	if n := h.dapReg.Counter("dap_verify_rejects").Value(); n != 1 {
		t.Errorf("dap_verify_rejects = %d, want 1", n)
	}
	if n := h.dapReg.Counter("dap_code_classes_loaded").Value(); n != 0 {
		t.Errorf("dap_code_classes_loaded = %d after a refusal", n)
	}
}

// TestUnresolvableDigestFailsBeforeShipping routes a query to a release
// the repository does not hold: the DAP asks for its digest, and the
// unit must fail with nothing shipped — not a single DEPLOY_CODE frame.
func TestUnresolvableDigestFailsBeforeShipping(t *testing.T) {
	var log startLog
	h := newResumeHarness(t, func(c *Config) {
		forceCodeShip(c)
		log.wrap(c)
	}, nil)
	q, err := h.srv.Prepare(codeShipQuery)
	if err != nil {
		t.Fatal(err)
	}
	ghost := canaryPlan(q.Plan, core.CodeRef{Name: "AvgEnergy", Version: "9", Checksum: "no-such-release"})
	stats, _, err := q.runRelease(context.Background(), time.Now(), "qghost", ghost, func(types.Tuple) ([]byte, error) { return nil, nil })
	if err == nil || !strings.Contains(err.Error(), "no-such-release") || !strings.Contains(err.Error(), "vanished from the repository") {
		t.Fatalf("err = %v, want the missing release named", err)
	}
	if stats.CodeClassesShipped != 0 || stats.CodeBytesShipped != 0 {
		t.Errorf("stats count %d classes / %d B shipped", stats.CodeClassesShipped, stats.CodeBytesShipped)
	}
	for _, r := range log.snapshot() {
		if r.blobs != 0 {
			t.Errorf("a START sent %d DEPLOY_CODE frame(s) before failing", r.blobs)
		}
	}
}
