package dap

import (
	"testing"

	"mocha/internal/core"
	"mocha/internal/wire"
)

// TestDAPCodeInvalidate: a CODE_INVALIDATE frame drops exactly the named
// digests from the code cache (rollback hygiene — a withdrawn release
// must not survive as a stale cache hit), acks the drop count, and the
// next START re-requests the class.
func TestDAPCodeInvalidate(t *testing.T) {
	conn, srv := testDAP(t, Config{})
	frag, cls := avgEnergyFragment(t)
	deployAndRun(t, conn, frag, cls)
	if !srv.HasClass(cls.Name, cls.Checksum) {
		t.Fatal("deployed class not cached")
	}
	if srv.HasClass(cls.Name, "deadbeef") {
		t.Fatal("phantom digest reported cached")
	}

	payload, _ := wire.EncodeXML(&wire.CodeInvalidate{Digests: []string{cls.Checksum, "deadbeef"}})
	if err := conn.Send(wire.MsgCodeInvalidate, payload); err != nil {
		t.Fatal(err)
	}
	ackData, err := conn.Expect(wire.MsgCodeInvalidateAck)
	if err != nil {
		t.Fatal(err)
	}
	var ack wire.CodeInvalidateAck
	if err := wire.DecodeXML(ackData, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Dropped != 1 {
		t.Errorf("ack.Dropped = %d, want 1 (only the real digest was cached)", ack.Dropped)
	}
	if srv.HasClass(cls.Name, cls.Checksum) {
		t.Error("invalidated digest still cached")
	}

	// The class must be re-shipped now: the next START's ack asks for
	// it, and with it the fragment runs again.
	if need := startFragment(t, conn, &core.Start{Fragment: frag}, nil, cls); len(need) != 1 || need[0] != cls.Checksum {
		t.Errorf("invalidated class not re-requested: %v", need)
	}
	readStream(t, conn, frag.OutSchema)
	if !srv.HasClass(cls.Name, cls.Checksum) {
		t.Error("redeployed class not cached")
	}
	conn.Send(wire.MsgCodeInvalidate, payload)
	if _, err := conn.Expect(wire.MsgCodeInvalidateAck); err != nil {
		t.Fatal(err)
	}

	// Idempotent: a second invalidation has nothing left to drop.
	conn.Send(wire.MsgCodeInvalidate, payload)
	ackData, err = conn.Expect(wire.MsgCodeInvalidateAck)
	if err != nil {
		t.Fatal(err)
	}
	ack = wire.CodeInvalidateAck{}
	wire.DecodeXML(ackData, &ack)
	if ack.Dropped != 0 {
		t.Errorf("second invalidate dropped %d", ack.Dropped)
	}
	// After invalidation the class redeploys cleanly and runs again.
	deployAndRun(t, conn, frag, cls)
	if !srv.HasClass(cls.Name, cls.Checksum) {
		t.Error("redeployed class not cached")
	}
}
