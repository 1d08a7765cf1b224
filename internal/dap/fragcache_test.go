package dap

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/types"
	"mocha/internal/wire"
)

// startPayload is a START's payload as the QPC encodes it.
func startPayload(t testing.TB, req *core.Start) []byte {
	t.Helper()
	data, err := wire.EncodeXML(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameStart reports whether two decoded STARTs are the same request:
// the same document once encoded again.
func sameStart(a, b *core.Start) bool {
	da, errA := wire.EncodeXML(a)
	db, errB := wire.EncodeXML(b)
	return (errA == nil) == (errB == nil) && bytes.Equal(da, db)
}

// TestWarmStartDecodeAllocs pins what a warm START costs the DAP to
// decode: its <start …> tag, and the fragment from the cache — a bounded
// number of allocations, whatever the fragment's size. Both STARTs the
// QPC sends on a warm query are pinned: a fragment's, and a shard's with
// its partition coordinates. (A re-placement's tag adds skip, one more
// attribute, and costs 34.)
func TestWarmStartDecodeAllocs(t *testing.T) {
	frag, _ := avgEnergyFragment(t)
	frag.SemiJoinCol = 0
	for _, req := range []*core.Start{
		{Stream: "q0000002a-0001/1", Trace: "q0000002a-0001", Fragment: frag},
		{Stream: "q0000002a-0001/1", Trace: "q0000002a-0001", Part: 1, Of: 3, Fragment: frag},
	} {
		payload := startPayload(t, req)
		var whole core.Start
		if err := wire.DecodeXML(payload, &whole); err != nil {
			t.Fatal(err)
		}
		c := newFragmentCache()
		if got, hit, err := decodeStart(c, payload); err != nil || hit || !sameStart(&got, &whole) {
			t.Fatalf("cold decode: hit %v, err %v, %+v", hit, err, got)
		}
		var got core.Start
		var hit bool
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			if got, hit, err = decodeStart(c, payload); err != nil {
				t.Fatal(err)
			}
		})
		if !hit || !sameStart(&got, &whole) {
			t.Fatalf("warm decode: hit %v, %+v", hit, got)
		}
		if allocs > 32 {
			t.Errorf("a warm START (%d B, part %d of %d) took %.0f allocations to decode, budget 32", len(payload), req.Part, req.Of, allocs)
		}
	}
}

// TestFragmentCacheBounded: however many distinct fragments arrive, the
// cache keeps at most fragmentCacheBytes of their documents, and the
// least recently used goes first.
func TestFragmentCacheBounded(t *testing.T) {
	payload := func(i int) []byte {
		frag, _ := avgEnergyFragment(t)
		frag.Table = fmt.Sprintf("%s%d", strings.Repeat("T", 20<<10), i)
		return startPayload(t, &core.Start{Stream: fmt.Sprintf("s/%d", i), Fragment: frag})
	}
	c := newFragmentCache()
	first := payload(0)
	for i := 0; i < 120; i++ {
		if _, _, err := decodeStart(c, payload(i)); err != nil {
			t.Fatal(err)
		}
		if c.size > fragmentCacheBytes {
			t.Fatalf("after %d fragments the cache holds %d B, bound %d", i+1, c.size, fragmentCacheBytes)
		}
		// Keep the first fragment the most recently used.
		if _, hit, _ := decodeStart(c, first); !hit {
			t.Fatalf("fragment 0 evicted after %d fragments while in use", i+1)
		}
	}
	if _, hit, _ := decodeStart(c, payload(1)); hit {
		t.Error("fragment 1, the least recently used, is still cached")
	}
	if n := c.order.Len(); n != len(c.items) || n < 2 || n > fragmentCacheBytes/(20<<10) {
		t.Errorf("%d entries listed, %d indexed", n, len(c.items))
	}
}

// TestCachedFragmentRunsConcurrently: two sessions run one cached
// fragment at once — a semi-join, so both install keys against it — and
// stream rows byte-identical to the cold run's, leaving the shared
// fragment as it was.
func TestCachedFragmentRunsConcurrently(t *testing.T) {
	reg := obs.NewRegistry()
	conn, srv := testDAP(t, Config{Metrics: reg})
	frag, rel := avgEnergyFragment(t)
	frag.SemiJoinCol = 0
	keys := []types.Tuple{{types.Int(2)}, {types.Int(5)}, {types.Int(7)}}
	startFragment(t, conn, &core.Start{Fragment: frag}, keys, rel)
	coldRows, _ := readStream(t, conn, frag.OutSchema)
	cold := wire.EncodeBatch(coldRows)
	if len(coldRows) != 3 {
		t.Fatalf("cold run streamed %d rows, want 3", len(coldRows))
	}
	doc, err := wire.EncodeXML(frag)
	if err != nil {
		t.Fatal(err)
	}
	shared, ok := srv.frags.get(doc)
	if !ok {
		t.Fatal("the cold run's fragment is not cached")
	}
	before, _ := wire.EncodeXML(shared)

	t.Run("sessions", func(t *testing.T) {
		for i := 0; i < 2; i++ {
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel()
				c := connectDAP(t, srv)
				for run := 0; run < 5; run++ {
					startFragment(t, c, &core.Start{Fragment: frag}, keys, rel)
					rows, _ := readStream(t, c, frag.OutSchema)
					if got := wire.EncodeBatch(rows); !bytes.Equal(got, cold) {
						t.Errorf("run %d streamed %v, the cold run %v", run, rows, coldRows)
					}
				}
			})
		}
	})
	if hits := reg.Counter(obs.MDapFragmentCacheHits).Value(); hits != 10 {
		t.Errorf("dap_fragment_cache_hits = %d, want 10", hits)
	}
	if misses := reg.Counter(obs.MDapFragmentCacheMisses).Value(); misses != 1 {
		t.Errorf("dap_fragment_cache_misses = %d, want 1", misses)
	}
	if after, _ := wire.EncodeXML(shared); !bytes.Equal(after, before) {
		t.Errorf("the shared fragment changed:\n%s\n%s", before, after)
	}
}

// FuzzStartSplit: decoding a START in two halves — the tag, and the
// fragment through the cache, whether the cache is cold or already
// holds that fragment from another START — gives what decoding it whole
// gives, in value and in error-ness, on every input.
func FuzzStartSplit(f *testing.F) {
	frag, _ := avgEnergyFragment(f)
	for _, req := range []*core.Start{
		{Stream: "q1/0", Trace: "q1", Part: 2, Of: 3, Skip: 7, Fragment: frag},
		{Stream: "q1/1", Fragment: &core.Fragment{Site: "site1", Table: "Rasters", SemiJoinCol: -1,
			CutPoint: "below=[call AvgEnergy]", CutAlts: 3}},
	} {
		good := startPayload(f, req)
		f.Add(good)
		s := string(good)
		tagEnd := strings.IndexByte(s, '>') + 1
		// A fragment naming a feature is refused with the typed error,
		// whether or not the DAP holds the same fragment without it.
		gated := []byte(strings.Replace(s, "<fragment ", `<fragment requires="x" `, 1))
		warm := newFragmentCache()
		decodeStart(warm, good)
		for _, c := range []*lru[*core.Fragment]{newFragmentCache(), warm} {
			var fe *core.UnsupportedPlanFeatureError
			if _, _, err := decodeStart(c, gated); !errors.As(err, &fe) {
				f.Fatalf("a START whose fragment requires a feature decoded: %v", err)
			}
		}
		for _, bad := range []string{
			strings.Replace(s, `stream="`, `xmlns:p="urn:x" stream="`, 1),  // a namespace in the tag
			strings.Replace(s, `stream="`, `note="a>b" stream="`, 1),       // a '>' inside a value
			strings.Replace(s, `stream="q1/`, `stream="q1&amp;`, 1),        // an entity in a value
			strings.Replace(s, `skip="7"`, `skip="seven"`, 1),              // a tag that does not decode
			strings.Replace(s, "</fragment>", "</fragment> ", 1),           // text after the fragment
			strings.Replace(s, "</fragment>", "</fragment><fragment/>", 1), // two fragments
			strings.Replace(s, "</fragment>", "</fragment><!--x-->", 1),    // a comment after it
			strings.Replace(s, "<fragment", "<p:fragment", 1),              // a prefixed fragment
			string(gated),                                    // a feature gate
			s[:tagEnd-1] + "/>" + s[tagEnd:],                 // a self-closed tag
			s[:tagEnd] + "</start>",                          // no fragment at all
			s[:len(s)-len("</start>")] + "</start ></start>", // a second end tag
			s[:len(s)/2] + "</start>",                        // a fragment cut short
		} {
			f.Add([]byte(bad))
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var whole core.Start
		wholeErr := wire.DecodeXML(payload, &whole)
		check := func(how string, c *lru[*core.Fragment]) {
			split, _, err := decodeStart(c, payload)
			if (err == nil) != (wholeErr == nil) {
				t.Fatalf("%s: split decode err %v, whole decode err %v", how, err, wholeErr)
			}
			if err == nil && !sameStart(&split, &whole) {
				t.Fatalf("%s: split decode %+v, whole decode %+v", how, split, whole)
			}
		}
		cold := newFragmentCache()
		check("cold", cold)
		check("warm", cold)
		if _, doc, ok := splitStart(payload); ok {
			// The same fragment document, cached from a START of another tag.
			primed := newFragmentCache()
			decodeStart(primed, append(append([]byte(`<start stream="other">`), doc...), "</start>"...))
			check("primed", primed)
		}
	})
}

// newFragmentCache returns an empty cache of a server's fragment bound.
func newFragmentCache() *lru[*core.Fragment] { return newLRU[*core.Fragment](fragmentCacheBytes) }
