package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mocha/internal/dap"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/qpc"
	"mocha/internal/types"
	"mocha/internal/wire"
	"mocha/pkg/mocha"
)

// driveShaper sends one megabyte across a 10 Mbps / 300 µs shaped link
// and reports modelled time / measured time: how much of the link the
// shaper's store-and-forward sleeps actually deliver.
func driveShaper(c *driverCtx) (map[string]float64, error) {
	total, chunk := 1<<20, 64<<10
	if c.smoke() {
		total, chunk = 16<<10, 4<<10
	}
	shaper := netsim.Ethernet10Mbps
	nw := netsim.NewNetwork(shaper)
	l, err := nw.Listen("sink")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	received := make(chan int64, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			received <- 0
			return
		}
		n, _ := io.Copy(io.Discard, conn) // a short count fails the check below
		received <- n
	}()
	conn, err := nw.Dial("sink")
	if err != nil {
		l.Close()
		<-received
		return nil, err
	}
	buf := make([]byte, chunk)
	start := time.Now()
	for sent := 0; sent < total; sent += chunk {
		if _, err := conn.Write(buf); err != nil {
			conn.Close()
			<-received
			return nil, err
		}
	}
	conn.Close()
	got := <-received
	el := time.Since(start)
	if got != int64(total) {
		return nil, fmt.Errorf("sink received %d of %d bytes", got, total)
	}
	modelled := shaper.TransmissionTime(int64(total)) + shaper.Latency
	return map[string]float64{"netsim.shaped_efficiency_10mbps": modelled.Seconds() / el.Seconds()}, nil
}

// driveDial times opening (and closing) a connection on the unshaped
// in-memory network.
func driveDial(c *driverCtx) (map[string]float64, error) {
	const perIter = 64
	nw := netsim.NewNetwork(nil)
	l, err := nw.Listen("peer")
	if err != nil {
		return nil, err
	}
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	n, el, err := c.loop(func() error {
		for i := 0; i < perIter; i++ {
			conn, err := nw.Dial("peer")
			if err != nil {
				return err
			}
			conn.Close()
		}
		return nil
	})
	l.Close()
	<-accepted
	if err != nil {
		return nil, err
	}
	return map[string]float64{"netsim.dial_us": nsPer(int64(n)*perIter, el) / 1e3}, nil
}

// setupTotals sums, over the dialled connections of the measured
// queries, what happened before the first tuple frame arrived.
type setupTotals struct {
	mu         sync.Mutex
	conns      int
	roundTrips int64
	bytes      int64
	elapsed    time.Duration
}

func (t *setupTotals) reset() {
	t.mu.Lock()
	t.conns, t.roundTrips, t.bytes, t.elapsed = 0, 0, 0, 0
	t.mu.Unlock()
}

// setupConn watches one QPC->DAP connection from the dialling side. It
// counts bytes in both directions and write->read direction flips
// (round trips) until the first frame of the tuple stream shows up, by
// following the 5-byte frame headers of the inbound byte stream.
type setupConn struct {
	net.Conn
	totals *setupTotals
	dialed time.Time

	mu         sync.Mutex
	done       bool
	wroteLast  bool
	roundTrips int64
	bytes      int64
	hdr        [5]byte
	hdrN       int
	skip       int // payload bytes of the current frame still to pass
}

func (sc *setupConn) Write(p []byte) (int, error) {
	sc.mu.Lock()
	if !sc.done {
		sc.wroteLast = true
		sc.bytes += int64(len(p))
	}
	sc.mu.Unlock()
	return sc.Conn.Write(p)
}

func (sc *setupConn) Read(p []byte) (int, error) {
	n, err := sc.Conn.Read(p)
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.done || n == 0 {
		return n, err
	}
	if sc.wroteLast {
		sc.wroteLast = false
		sc.roundTrips++
	}
	for _, b := range p[:n] {
		if sc.skip > 0 {
			sc.skip--
			sc.bytes++
			continue
		}
		sc.hdr[sc.hdrN] = b
		sc.hdrN++
		if sc.hdrN < len(sc.hdr) {
			continue
		}
		sc.hdrN = 0
		switch wire.MsgType(sc.hdr[4]) {
		case wire.MsgTupleBatch, wire.MsgSeqBatch, wire.MsgEOS, wire.MsgSeqEOS:
			sc.finish()
			return n, err
		}
		sc.bytes += int64(len(sc.hdr))
		sc.skip = int(binary.BigEndian.Uint32(sc.hdr[:4]))
	}
	return n, err
}

// finish books the connection's set-up phase; sc.mu is held.
func (sc *setupConn) finish() {
	sc.done = true
	t := sc.totals
	t.mu.Lock()
	t.conns++
	t.roundTrips += sc.roundTrips
	t.bytes += sc.bytes
	t.elapsed += time.Since(sc.dialed)
	t.mu.Unlock()
}

// driveSessionSetup stands up its own qpc.Server and dap.Servers on an
// unshaped network, with a counting wrapper as qpc.Config.Dial, and runs
// the two-site join Q5 under code shipping with warm DAP code caches. It
// reports, per fragment connection, the round trips, bytes and time
// spent before the first tuple frame — the per-query control plane that
// a 300 µs link multiplies.
func driveSessionSetup(c *driverCtx) (map[string]float64, error) {
	reps := 20
	if c.smoke() {
		reps = 1
	}
	// The helper cluster supplies the catalog; its site addresses
	// ("dap-<site>") are re-bound on the driver's own network.
	cl, err := c.planCluster(mocha.StrategyCodeShip)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	reg := obs.NewRegistry()
	nw := netsim.NewNetwork(nil)
	var served sync.WaitGroup
	var listeners []net.Listener
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
		served.Wait()
	}()
	for i, site := range siteNames {
		l, err := nw.Listen("dap-" + site)
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		srv := dap.New(dap.Config{Site: site, Driver: &dap.StorageDriver{Store: c.ds.stores[i]}, Metrics: reg})
		served.Add(1)
		go func() {
			defer served.Done()
			_ = srv.Serve(l) // returns when the listener closes
		}()
	}
	totals := &setupTotals{}
	srv := qpc.New(qpc.Config{
		Cat:      cl.Catalog(),
		Strategy: mocha.StrategyCodeShip,
		Metrics:  reg,
		Dial: func(addr string) (net.Conn, error) {
			conn, err := nw.Dial(addr)
			if err != nil {
				return nil, err
			}
			return &setupConn{Conn: conn, totals: totals, dialed: time.Now()}, nil
		},
	})
	defer srv.Close()

	q5 := c.ds.sql[4]
	run := func() error {
		q, err := srv.Prepare(q5)
		if err != nil {
			return err
		}
		_, err = q.Run(func(types.Tuple) error { return nil })
		return err
	}
	if err := run(); err != nil { // ships the classes; later runs hit the caches
		return nil, err
	}
	totals.reset()
	for i := 0; i < reps; i++ {
		if err := run(); err != nil {
			return nil, err
		}
	}
	totals.mu.Lock()
	defer totals.mu.Unlock()
	if totals.conns < 2*reps {
		return nil, fmt.Errorf("saw %d fragment connections in %d runs of a two-site join", totals.conns, reps)
	}
	n := float64(totals.conns)
	return map[string]float64{
		"qpc.setup_roundtrips_per_fragment": float64(totals.roundTrips) / n,
		"qpc.setup_bytes_per_fragment":      float64(totals.bytes) / n,
		"qpc.setup_us_unshaped":             float64(totals.elapsed.Nanoseconds()) / 1e3 / n,
	}, nil
}
