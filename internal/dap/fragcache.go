package dap

import (
	"bytes"
	"encoding/xml"
	"io"

	"mocha/internal/core"
	"mocha/internal/wire"
)

// fragmentCacheBytes bounds the fragment documents a DAP keeps decoded,
// counted by their bytes. The fragment cache keeps each decoded
// fragment under the exact bytes of its <fragment> document, so a START
// naming a fragment this DAP has run before decodes only its <start …>
// tag (DESIGN §3.6). A cached fragment is shared by every execution
// that runs it, which only reads it.
const fragmentCacheBytes = 1 << 20

// decodeStart decodes a START payload. One of the shape wire.EncodeXML
// gives a core.Start — the <start …> tag, one <fragment> element, the
// closing </start> — is decoded in two halves: the tag alone, and the
// fragment by its bytes through the cache. Any other payload, and one
// whose halves do not both decode, is decoded whole, with the whole
// decode's errors. hit reports whether the fragment came from the cache.
func decodeStart(frags *lru[*core.Fragment], payload []byte) (req core.Start, hit bool, err error) {
	if tag, doc, ok := splitStart(payload); ok {
		frag, hit := frags.get(doc)
		if !hit {
			frag = decodeFragmentDoc(doc)
		}
		if frag != nil && xml.Unmarshal(append(tag, "</start>"...), &req) == nil {
			if !hit {
				frags.put(string(doc), frag, len(doc))
			}
			req.Fragment = frag
			return req, hit, nil
		}
		req = core.Start{}
	}
	return req, false, wire.DecodeXML(payload, &req)
}

// splitStart cuts a START payload into its <start …> tag — capped at
// its full length, so appending to it copies — and the fragment
// document between that tag and the final </start>. A tag declaring a
// namespace is not cut: the fragment's names would read differently
// alone.
func splitStart(payload []byte) (tag, doc []byte, ok bool) {
	const open, end = "<start", "</start>"
	if !bytes.HasPrefix(payload, []byte(open)) || !bytes.HasSuffix(payload, []byte(end)) {
		return nil, nil, false
	}
	i := bytes.IndexByte(payload, '>')
	if i <= len(open) || !bytes.HasPrefix(payload[i+1:], []byte("<fragment")) {
		return nil, nil, false
	}
	switch payload[len(open)] {
	case ' ', '\t', '\n', '\r', '>':
	default:
		return nil, nil, false
	}
	tag = payload[: i+1 : i+1]
	if payload[i-1] == '/' || bytes.Contains(tag, []byte("xmlns")) || i+1 > len(payload)-len(end) {
		return nil, nil, false
	}
	return tag, payload[i+1 : len(payload)-len(end)], true
}

// decodeFragmentDoc decodes doc if it is exactly one <fragment> element
// and nothing after it, and returns nil otherwise.
func decodeFragmentDoc(doc []byte) *core.Fragment {
	d := xml.NewDecoder(bytes.NewReader(doc))
	tok, err := d.Token()
	se, ok := tok.(xml.StartElement)
	if err != nil || !ok || se.Name.Local != "fragment" {
		return nil
	}
	frag := new(core.Fragment)
	if d.DecodeElement(frag, &se) != nil {
		return nil
	}
	if _, err := d.RawToken(); err != io.EOF {
		return nil
	}
	return frag
}
