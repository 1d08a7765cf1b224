package qpc

// The START exchange seen from the QPC's side of the wire: how many
// times the conversation turns around before a stream's first frame,
// what a retried START leaves behind at the DAP, when a delivered
// stream's replay window is freed, and what each refusal looks like by
// the time it reaches the caller.

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
	"mocha/internal/obs"
	"mocha/internal/types"
	"mocha/internal/vm"
	"mocha/internal/wire"
)

// frameScan follows one direction of a framed byte stream and reports
// each frame's type as its 5-byte header completes.
type frameScan struct {
	hdr  [5]byte
	n    int
	skip int // payload bytes of the current frame still to pass
}

func (s *frameScan) feed(p []byte, onFrame func(wire.MsgType)) {
	for len(p) > 0 {
		if s.skip > 0 {
			n := min(s.skip, len(p))
			s.skip -= n
			p = p[n:]
			continue
		}
		s.hdr[s.n] = p[0]
		s.n++
		p = p[1:]
		if s.n == len(s.hdr) {
			s.n = 0
			s.skip = int(binary.BigEndian.Uint32(s.hdr[:4]))
			onFrame(wire.MsgType(s.hdr[4]))
		}
	}
}

// startRecord is what one START cost before its stream began.
type startRecord struct {
	flips int  // write→read turnarounds before the first SEQ_* frame
	blobs int  // DEPLOY_CODE frames sent
	keys  bool // a SEMIJOIN_KEYS frame rode behind the START
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
// stream's first sequenced frame shows up.
type countingConn struct {
	net.Conn
	log       *startLog
	out, in   frameScan
	cur       *startRecord
	wroteLast bool
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	c.out.feed(p, func(t wire.MsgType) {
		switch t {
		case wire.MsgStart:
			c.cur = &startRecord{}
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
	if n == 0 || c.cur == nil || c.cur.done {
		return n, err
	}
	if c.wroteLast {
		c.wroteLast = false
		c.cur.flips++
	}
	c.in.feed(p[:n], func(t wire.MsgType) {
		if t == wire.MsgSeqBatch || t == wire.MsgSeqEOS {
			c.cur.done = true
		}
	})
	return n, err
}

// TestStartRoundTrips pins the cost the protocol promises of putting a
// stream on a connection: one turnaround when the DAP holds every class
// (the ack, and the stream behind it), two when it does not (the ack,
// then the classes and the stream), still one for a semi-join fragment,
// whose key set goes out behind the START before the ack is read — and
// one for a stream placed again after its connection broke, whether the
// DAP continues it, runs it afresh because the window is gone, or is a
// sibling replica that never saw it.
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
		{"recovery, window held", func(t *testing.T, tune func(*Config)) (*Server, error) {
			h := newResumeHarness(t, tune, nil)
			h.network.SetFault("dap1", &netsim.FaultPlan{DropFirstConnAfterBytes: 80 << 10})
			_, err := h.executeWithin(t, 10*time.Second, streamQuery)
			return h.srv, err
		}, 2, "qpc_stream_resumes"},
		{"recovery, window gone", func(t *testing.T, tune func(*Config)) (*Server, error) {
			h := newResumeHarness(t, tune, func(d *dap.Config) { d.RetainTTL = time.Nanosecond })
			h.network.SetFault("dap1", &netsim.FaultPlan{DropFirstConnAfterBytes: 80 << 10})
			_, err := h.executeWithin(t, 10*time.Second, streamQuery)
			return h.srv, err
		}, 2, "qpc_resume_failed"},
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
			if again := recs[len(recs)-1]; !again.done || again.flips != 1 || again.blobs != 0 {
				t.Errorf("re-placement START = %+v, want its stream after 1 turnaround", again)
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
// carries: once `after` sequenced frames have come in — counted from the
// last START written, or with keyed set from the key set written behind
// one — the read that brought the last of them is the connection's last.
// Before it fails the next read it swallows `lose` more bytes: frames the
// DAP sent, and believes delivered, that the QPC never sees.
type cutConn struct {
	net.Conn
	keyed bool
	after int
	lose  int

	out, in frameScan
	armed   bool
	seen    int
}

func (c *cutConn) Write(p []byte) (int, error) {
	c.out.feed(p, func(t wire.MsgType) {
		switch t {
		case wire.MsgStart:
			c.armed, c.seen = !c.keyed, 0
		case wire.MsgSemiJoinKeys:
			c.armed = true
		}
	})
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
	c.in.feed(p[:n], func(t wire.MsgType) {
		if c.armed && t == wire.MsgSeqBatch {
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

// waitForGauge polls a DAP gauge for up to two seconds — far inside the
// 10 s retain TTL these tests must not be waiting out.
func waitForGauge(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Gauge(name).Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, reg.Gauge(name).Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetriedStartReplacesStaleExecution loses a START_ACK in flight:
// the DAP has acked and begun to run when the QPC's read fails, so the
// retry names a stream ID the DAP still retains. The retry must replace
// that execution — rows and volumes as on a clean run — and when the
// query is over the DAP retains nothing.
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
	waitForGauge(t, h.dapReg, "dap_streams_retained", 0)
}

// TestCloseReleasesDeliveredStreams: after a clean two-site join — a
// semi-join here, two streams per session — the QPC's CLOSE frees every
// replay window at once instead of leaving them to the retain TTL.
func TestCloseReleasesDeliveredStreams(t *testing.T) {
	h := newChaosHarness(t, forceCodeShip)
	if _, err := h.executeWithin(t, 5*time.Second, joinQuery); err != nil {
		t.Fatal(err)
	}
	for _, reg := range h.dapRegs {
		if n := reg.Counter("dap_activations").Value(); n != 2 {
			t.Errorf("dap_activations = %d, want 2 (key projection and fragment)", n)
		}
		waitForGauge(t, reg, "dap_streams_retained", 0)
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
	ghost := map[string]core.CodeRef{"avgenergy": {Name: "AvgEnergy", Version: "9", Checksum: "no-such-release"}}
	stats, _, err := q.runRelease(context.Background(), time.Now(), "qghost", func(types.Tuple) error { return nil }, ghost, false)
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
