package qpc

import (
	"net"
	"testing"

	"mocha/internal/types"
	"mocha/internal/wire"
)

// testConn is a minimal wire-protocol client used by server tests (the
// full client lives in pkg/mocha).
type testConn struct {
	conn *wire.Conn
}

func newTestConn(nc net.Conn) *testConn { return &testConn{conn: wire.NewConn(nc)} }

func (c *testConn) Close() { c.conn.Close() }

func (c *testConn) hello(t *testing.T) {
	t.Helper()
	data, _ := wire.EncodeXML(&wire.Hello{Role: "client", Site: "test"})
	if err := c.conn.Send(wire.MsgHello, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.conn.Expect(wire.MsgHelloAck); err != nil {
		t.Fatal(err)
	}
}

func (c *testConn) query(t *testing.T, sql string) ([]types.Tuple, QueryStats) {
	t.Helper()
	if err := c.conn.Send(wire.MsgQuery, []byte(sql)); err != nil {
		t.Fatal(err)
	}
	data, err := c.conn.Expect(wire.MsgResultSchema)
	if err != nil {
		t.Fatal(err)
	}
	var doc wire.ResultSchema
	if err := wire.DecodeXML(data, &doc); err != nil {
		t.Fatal(err)
	}
	r := wire.NewBatchReader(c.conn, doc.Schema)
	var rows []types.Tuple
	for {
		tup, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			break
		}
		rows = append(rows, tup)
	}
	var stats QueryStats
	if err := stats.UnmarshalBinary(r.EOSPayload); err != nil {
		t.Fatal(err)
	}
	return rows, stats
}
