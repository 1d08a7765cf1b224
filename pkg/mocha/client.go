package mocha

import (
	"fmt"
	"net"

	"mocha/internal/types"
	"mocha/internal/wire"
)

// Client is a wire-protocol session with a QPC — the stand-alone
// application client of section 3.1.
type Client struct {
	conn *wire.Conn
}

// Dial connects to a QPC at a TCP address.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc)
}

// NewClient wraps an established connection and performs the HELLO
// handshake.
func NewClient(nc net.Conn) (*Client, error) {
	return NewClientTenant(nc, "")
}

// NewClientTenant is NewClient with a tenant name carried in the HELLO
// handshake. The QPC's admission queue schedules waiting queries
// round-robin across tenants, so each tenant gets a fair share of
// slots under saturation. An empty tenant joins the anonymous pool.
func NewClientTenant(nc net.Conn, tenant string) (*Client, error) {
	conn := wire.NewConn(nc)
	hello, err := wire.EncodeXML(&wire.Hello{Role: "client", Site: "client", Tenant: tenant})
	if err != nil {
		nc.Close()
		return nil, err
	}
	if err := conn.Send(wire.MsgHello, hello); err != nil {
		nc.Close()
		return nil, err
	}
	if _, err := conn.Expect(wire.MsgHelloAck); err != nil {
		nc.Close()
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Rows is a streaming query result. Iterate with Next until it returns
// (nil, nil); Stats is available afterwards.
type Rows struct {
	// Schema describes the result columns.
	Schema Schema
	reader *wire.BatchReader
	stats  *QueryStats
}

// Query submits SQL and returns the streaming result. A Rows must be
// fully consumed (or the client closed) before the next Query.
func (c *Client) Query(sql string) (*Rows, error) {
	if err := c.conn.Send(wire.MsgQuery, []byte(sql)); err != nil {
		return nil, err
	}
	data, err := c.conn.Expect(wire.MsgResultSchema)
	if err != nil {
		return nil, err
	}
	var doc wire.ResultSchema
	if err := wire.DecodeXML(data, &doc); err != nil {
		return nil, err
	}
	return &Rows{Schema: doc.Schema, reader: wire.NewBatchReader(c.conn, doc.Schema)}, nil
}

// Next returns the next row, or (nil, nil) at end of stream.
func (r *Rows) Next() (Tuple, error) {
	tup, err := r.reader.Next()
	if err != nil {
		return nil, err
	}
	if tup == nil && r.stats == nil && r.reader.EOSPayload != nil {
		var qs QueryStats
		if err := qs.UnmarshalBinary(r.reader.EOSPayload); err != nil {
			return nil, err
		}
		r.stats = &qs
	}
	return tup, nil
}

// All drains the stream into a slice.
func (r *Rows) All() ([]Tuple, error) {
	var out []types.Tuple
	for {
		t, err := r.Next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			return out, nil
		}
		out = append(out, t)
	}
}

// Stats returns the query's execution statistics; it errors if the
// stream has not been fully consumed.
func (r *Rows) Stats() (*QueryStats, error) {
	if r.stats == nil {
		return nil, fmt.Errorf("mocha: stats available only after the result stream ends")
	}
	return r.stats, nil
}

// Close ends the session.
func (c *Client) Close() error {
	_ = c.conn.Send(wire.MsgClose, nil)
	return c.conn.Close()
}
