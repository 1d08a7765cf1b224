package wire

import (
	"encoding/xml"
	"fmt"

	"mocha/internal/obs"
	"mocha/internal/types"
)

// Control-plane payloads are XML documents, as in the paper, where query
// plans and metadata are exchanged as XML.

// Hello opens a client↔QPC session. (Between QPC and DAP a HELLO frame
// is the heartbeat's ping and carries no document.)
type Hello struct {
	XMLName xml.Name `xml:"hello"`
	Role    string   `xml:"role,attr"` // "client" or "qpc"
	Site    string   `xml:"site,attr"`
	// Tenant identifies the client's fairness class for the QPC's
	// admission queue: under saturation, queued queries are admitted
	// round-robin across tenants, so one aggressive tenant cannot
	// starve the rest. Empty means the default tenant.
	Tenant string `xml:"tenant,attr,omitempty"`
}

// StartAck answers a START (the <start> document is core.Start, since
// it carries the fragment), one of two ways. Running the fragment, it
// lists the content digests, among the fragment's code refs, of the
// classes the DAP does not hold: the QPC sends exactly those as
// DEPLOY_CODE frames, in this order, and the stream follows; with none
// missing the stream follows the ack directly — the code-caching
// handshake section 3.6 of the paper sketches as future work. Continuing
// the stream it still retains past the frame the START named, it sets
// From to the next frame's sequence number and asks for nothing: the
// retained tail follows, then the rest of the stream.
type StartAck struct {
	XMLName xml.Name `xml:"start-ack"`
	From    uint64   `xml:"from,attr,omitempty"`
	Need    []string `xml:"need"`
}

// CodeInvalidate asks a DAP to drop cached code blobs by content digest
// — the rollback path of a canary release. Digest-keyed caches make this
// a no-op for sites that never loaded the withdrawn release.
type CodeInvalidate struct {
	XMLName xml.Name `xml:"code-invalidate"`
	Digests []string `xml:"digest"`
}

// CodeInvalidateAck reports how many cached blobs the DAP dropped.
type CodeInvalidateAck struct {
	XMLName xml.Name `xml:"code-invalidate-ack"`
	Dropped int      `xml:"dropped,attr"`
}

// ResultSchema is the RESULT_SCHEMA document: the result's schema under
// a <schema> root (a types.Schema alone has no root name of its own,
// because plan documents nest it under several).
type ResultSchema struct {
	XMLName xml.Name `xml:"schema"`
	types.Schema
}

// ProcCall is a procedural request to a DAP (section 3.2): operations
// outside the query abstraction, such as listing the tables a file
// server or XML repository offers.
type ProcCall struct {
	XMLName xml.Name `xml:"proc-call"`
	Op      string   `xml:"op,attr"`
	Args    []string `xml:"arg"`
}

// ProcResult carries a procedural response as text lines.
type ProcResult struct {
	XMLName xml.Name `xml:"proc-result"`
	Lines   []string `xml:"line"`
}

// ExecStats is what a DAP reports at the end of a fragment's stream:
// which execution this was, and its spans. Everything measured — the
// set-up steps' and operators' times, the volume read from the source
// (DBBytes on the scan's span) and written to the wire (NetBytes on the
// flush's), classes loaded and cache hits — is a span's; the QPC's
// figures are sums over them (section 5.2's breakdown, qpc.summarize).
// Span offsets are relative to the START's arrival; the QPC re-anchors
// them onto its own timeline.
type ExecStats struct {
	XMLName xml.Name `xml:"exec-stats"`
	Site    string   `xml:"site,attr"`
	// Trace echoes the START's trace ID, a label only: the spans are
	// reported with or without one.
	Trace string `xml:"trace,attr,omitempty"`
	// Part and Of echo a placement-aware START's partition ID and
	// pre-pruning partition count (Of > 0 marks a partitioned stream),
	// letting the QPC verify each gathered stream's shard.
	Part  int        `xml:"part,attr,omitempty"`
	Of    int        `xml:"of,attr,omitempty"`
	Spans []obs.Span `xml:"span"`
}

// EncodeXML marshals a control payload.
func EncodeXML(v any) ([]byte, error) {
	b, err := xml.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: encode control payload: %w", err)
	}
	return b, nil
}

// DecodeXML unmarshals a control payload.
func DecodeXML(data []byte, v any) error {
	if err := xml.Unmarshal(data, v); err != nil {
		return fmt.Errorf("wire: decode control payload: %w", err)
	}
	return nil
}
