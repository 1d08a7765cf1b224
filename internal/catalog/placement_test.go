package catalog

import (
	"encoding/xml"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mocha/internal/types"
)

func testPlacement() *Placement {
	return &Placement{
		Key: "time", Kind: PlaceRange,
		Parts: []Partition{
			{Table: "Rasters__p0", Replicas: []string{"maryland", "virginia"}, HasHi: true, Hi: 100},
			{Table: "Rasters__p1", Replicas: []string{"virginia", "maryland"}, HasLo: true, Lo: 100},
		},
	}
}

func placementSchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "time", Kind: types.KindInt},
		types.Column{Name: "band", Kind: types.KindInt},
	)
}

func TestPlacementValidate(t *testing.T) {
	known := func(s string) bool { return s == "maryland" || s == "virginia" }
	schema := placementSchema()
	if err := testPlacement().Validate(schema, known); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}

	break_ := func(f func(*Placement)) *Placement {
		p := testPlacement()
		f(p)
		return p
	}
	cases := []struct {
		name string
		p    *Placement
		want string
	}{
		{"bad-kind", break_(func(p *Placement) { p.Kind = "round-robin" }), "kind"},
		{"unknown-key", break_(func(p *Placement) { p.Key = "nope" }), "not a column"},
		{"no-parts", break_(func(p *Placement) { p.Parts = nil }), "no partitions"},
		{"unnamed-part", break_(func(p *Placement) { p.Parts[0].Table = "" }), "no physical table"},
		{"no-replicas", break_(func(p *Placement) { p.Parts[1].Replicas = nil }), "no replicas"},
		{"dup-replica", break_(func(p *Placement) {
			p.Parts[0].Replicas = []string{"maryland", "maryland"}
		}), "twice"},
		{"unknown-site", break_(func(p *Placement) {
			p.Parts[0].Replicas = []string{"atlantis"}
		}), "unknown site"},
		{"inverted-range", break_(func(p *Placement) {
			p.Parts[1].HasHi, p.Parts[1].Hi = true, 50
		}), "empty range"},
		{"bad-buckets", &Placement{
			Key: "time", Kind: PlaceHash,
			Parts: []Partition{
				{Table: "a", Replicas: []string{"maryland"}, Bucket: 1},
				{Table: "b", Replicas: []string{"maryland"}, Bucket: 0},
			},
		}, "contiguous"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate(schema, known)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v should mention %q", err, tc.want)
			}
		})
	}
}

func TestPlacementRoute(t *testing.T) {
	p := testPlacement()
	for _, tc := range []struct {
		key  int64
		want int
	}{{-50, 0}, {0, 0}, {99, 0}, {100, 1}, {1 << 20, 1}} {
		got, err := p.Route(types.Int(tc.key))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("Route(%d) = %d, want %d", tc.key, got, tc.want)
		}
	}
	if _, err := p.Route(types.String_("x")); err == nil {
		t.Error("range routing a string key should fail")
	}

	h := &Placement{Key: "time", Kind: PlaceHash, Parts: []Partition{
		{Table: "a", Replicas: []string{"maryland"}, Bucket: 0},
		{Table: "b", Replicas: []string{"maryland"}, Bucket: 1},
		{Table: "c", Replicas: []string{"maryland"}, Bucket: 2},
	}}
	counts := make([]int, 3)
	for v := int64(0); v < 300; v++ {
		pi, err := h.Route(types.Int(v))
		if err != nil {
			t.Fatal(err)
		}
		counts[pi]++
	}
	for b, n := range counts {
		if n == 0 {
			t.Errorf("bucket %d got no keys of 300 — hash routing degenerate", b)
		}
	}
	if _, err := h.Route(types.Null{}); err == nil {
		t.Error("hash routing a NULL key should fail")
	}
}

func TestPlacementSitesAndClone(t *testing.T) {
	p := testPlacement()
	if got := p.Sites(); !reflect.DeepEqual(got, []string{"maryland", "virginia"}) {
		t.Errorf("Sites() = %v", got)
	}
	c := p.Clone()
	if !reflect.DeepEqual(c, p) {
		t.Fatal("clone differs")
	}
	c.Parts[0].Replicas[0] = "mars"
	if p.Parts[0].Replicas[0] != "maryland" {
		t.Fatal("clone aliases replica slice")
	}
	var nilP *Placement
	if nilP.Clone() != nil {
		t.Fatal("nil clone should stay nil")
	}
}

// TestPlacedTableSaveLoad round-trips a catalog holding a partitioned
// table through its XML persistence.
func TestPlacedTableSaveLoad(t *testing.T) {
	c := testCatalog(t)
	c.AddSite(&Site{Name: "virginia", Addr: "dap://virginia"})
	def := &TableDef{
		Name: "Sharded", URI: "mocha://partitioned/Sharded", Site: "maryland",
		Schema:    placementSchema(),
		Stats:     TableStats{RowCount: 100},
		Placement: testPlacement(),
	}
	if err := c.AddTable(def); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "catalog.xml")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	c2 := New(nil, nil)
	if err := c2.Load(path); err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Table("Sharded")
	if !ok {
		t.Fatal("placed table lost across save/load")
	}
	if !reflect.DeepEqual(got.Placement, def.Placement) {
		t.Fatalf("placement damaged:\n got %+v\nwant %+v", got.Placement, def.Placement)
	}
	// Unplaced tables stay unplaced.
	if tbl, _ := c2.Table("Rasters"); tbl.Placement != nil {
		t.Fatal("unplaced table grew a placement")
	}
}

// TestCatalogRejectsInvalidPlacement pins that AddTable runs placement
// validation: a placement naming an unregistered replica site is
// refused, like an unknown home site.
func TestCatalogRejectsInvalidPlacement(t *testing.T) {
	c := testCatalog(t)
	def := &TableDef{
		Name: "Bad", Site: "maryland", Schema: placementSchema(),
		Placement: &Placement{Key: "time", Kind: PlaceRange, Parts: []Partition{
			{Table: "Bad__p0", Replicas: []string{"atlantis"}},
		}},
	}
	if err := c.AddTable(def); err == nil || !strings.Contains(err.Error(), "unknown site") {
		t.Fatalf("invalid placement accepted: %v", err)
	}
}

// TestHoldsRange pins the interval test pruning runs per shard: a
// partition survives iff the predicate's [lo, hi] interval intersects
// its [Lo, Hi) range, an open side being the int64 extreme.
func TestHoldsRange(t *testing.T) {
	p := &Placement{Key: "time", Kind: PlaceRange, Parts: []Partition{
		{Table: "T__p0", HasHi: true, Hi: 10},
		{Table: "T__p1", HasLo: true, Lo: 10, HasHi: true, Hi: 20},
		{Table: "T__p2", HasLo: true, Lo: 20},
	}}
	const openLo, openHi = math.MinInt64, math.MaxInt64
	cases := []struct {
		part   int
		lo, hi int64
		want   bool
		why    string
	}{
		{0, openLo, openHi, true, "unbounded matches every shard"},
		{0, 10, openHi, false, "lo at the shard's exclusive Hi"},
		{0, 9, openHi, true, "lo just under the shard's Hi"},
		{1, openLo, 9, false, "hi below the shard's Lo"},
		{1, openLo, 10, true, "inclusive hi at the shard's Lo"},
		{1, 15, 15, true, "point inside the shard"},
		{2, openLo, 19, false, "hi below the last shard"},
		{2, 100, openHi, true, "last shard is unbounded above"},
	}
	for _, c := range cases {
		if got := p.HoldsRange(c.part, c.lo, c.hi); got != c.want {
			t.Errorf("HoldsRange(p%d, [%d, %d]) = %v: %s", c.part, c.lo, c.hi, got, c.why)
		}
	}
}

// randomPlacement generates a structurally valid placement for the
// quick round-trip (XML omits zero fields, so only canonical forms —
// e.g. bucket == index — survive unchanged).
func randomPlacement(r *rand.Rand) *Placement {
	kinds := []string{PlaceRange, PlaceHash}
	p := &Placement{Key: fmt.Sprintf("k%d", r.Intn(5)+1), Kind: kinds[r.Intn(2)]}
	n := r.Intn(4) + 1
	lo := int64(r.Intn(100)) - 200
	for i := 0; i < n; i++ {
		part := Partition{Table: fmt.Sprintf("t__p%d", i)}
		for j := r.Intn(3) + 1; j > 0; j-- {
			part.Replicas = append(part.Replicas, fmt.Sprintf("site%d-%d", i, j))
		}
		switch p.Kind {
		case PlaceHash:
			part.Bucket = i
		case PlaceRange:
			if i > 0 {
				part.HasLo, part.Lo = true, lo
			}
			if i < n-1 {
				hi := lo + int64(r.Intn(100)) + 1
				part.HasHi, part.Hi = true, hi
				lo = hi
			}
		}
		p.Parts = append(p.Parts, part)
	}
	return p
}

// TestPlacementQuickXMLRoundTrip drives random placements through the
// XML wire/persistence encoding: decode(encode(p)) == p.
func TestPlacementQuickXMLRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		p := randomPlacement(rand.New(rand.NewSource(seed)))
		data, err := xml.Marshal(p)
		if err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		var got Placement
		if err := xml.Unmarshal(data, &got); err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		if !reflect.DeepEqual(&got, p) {
			t.Logf("round-trip diverged:\n in  %+v\n out %+v", p, &got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
