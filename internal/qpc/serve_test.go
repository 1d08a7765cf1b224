package qpc

import (
	"errors"
	"net"
	"strings"
	"testing"

	"mocha/internal/core"
	"mocha/internal/wire"
)

// TestVerbTable drives every verb the QPC answers itself through
// ServeConn, in upper and in lower case: each must reach its handler —
// a result under the verb's column, or the handler's own error — rather
// than fall through to the SQL parser, and EXPLAIN ANALYZE must win over
// the EXPLAIN it extends.
func TestVerbTable(t *testing.T) {
	s := testQPC(t, core.StrategyAuto)
	client, server := net.Pipe()
	go s.ServeConn(server)
	conn := newTestConn(client)
	defer conn.Close()
	conn.hello(t)

	covered := map[string]bool{}
	for _, tc := range []struct {
		verb, arg string
		column    string // the result's one column, when the verb answers
		text      string // a substring of the answer, or of the handler's error
	}{
		{"EXPLAIN ANALYZE", "SELECT time FROM Rasters", "plan", "spans"},
		{"EXPLAIN", "SELECT time FROM Rasters", "plan", "fragment 0"},
		{"SHOW METRICS", "", "metric", "qpc_queries"},
		{"DESCRIBE", "Rasters", "rdf", "Rasters"},
		{"SHOW TABLES", "", "table", "Polygons"},
		{"VERIFY", "Perimeter", "verify", "verdict: VERIFIED"},
		{"SHOW ROLLOUTS", "", "rollout", "no rollouts"},
		{"SHOW RELEASES", "", "release", "AvgEnergy"},
		{"SHOW RELEASES", "AvgEnergy", "release", "AvgEnergy"},
		{"ROLLOUT", "AvgEnergy v2", "", "usage: ROLLOUT"},
		{"ROLLBACK", "AvgEnergy", "", "no running rollout"},
		{"PROMOTE", "AvgEnergy", "", "no running rollout"},
	} {
		covered[tc.verb] = true
		for _, verb := range []string{tc.verb, strings.ToLower(tc.verb)} {
			stmt := strings.TrimSpace(verb + " " + tc.arg)
			if err := conn.conn.Send(wire.MsgQuery, []byte(stmt)); err != nil {
				t.Fatal(err)
			}
			data, err := conn.conn.Expect(wire.MsgResultSchema)
			if tc.column == "" {
				var remote *wire.RemoteError
				if !errors.As(err, &remote) || !strings.Contains(remote.Msg, tc.text) {
					t.Errorf("%q: got %v, want the verb's own error containing %q", stmt, err, tc.text)
				}
				continue
			}
			if err != nil {
				t.Errorf("%q: %v", stmt, err)
				continue
			}
			var doc wire.ResultSchema
			if err := wire.DecodeXML(data, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Arity() != 1 || doc.Columns[0].Name != tc.column {
				t.Errorf("%q answered under %v, want the one column %q", stmt, doc.Schema, tc.column)
			}
			var text strings.Builder
			r := wire.NewBatchReader(conn.conn, doc.Schema)
			for {
				tup, err := r.Next()
				if err != nil {
					t.Fatalf("%q: %v", stmt, err)
				}
				if tup == nil {
					break
				}
				text.WriteString(tup[0].String() + "\n")
			}
			if !strings.Contains(text.String(), tc.text) {
				t.Errorf("%q: answer lacks %q:\n%s", stmt, tc.text, text.String())
			}
		}
	}
	for _, v := range verbs {
		if !covered[v.name] {
			t.Errorf("verb %q is not driven by this test", v.name)
		}
	}
	// A verb name is matched whole: a longer word is SQL (and fails there).
	if err := conn.conn.Send(wire.MsgQuery, []byte("EXPLAINS SELECT time FROM Rasters")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.conn.Expect(wire.MsgResultSchema); err == nil {
		t.Error("EXPLAINS was answered as a verb")
	}
}
