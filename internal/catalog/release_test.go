package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"mocha/internal/ops"
	"mocha/internal/vm"
)

// prog assembles a distinct single-function program: varying n varies
// the bytecode and therefore the content digest.
func prog(t *testing.T, name, version string, n int) *vm.Program {
	t.Helper()
	src := fmt.Sprintf("program %s version %s\nfunc eval args=1 locals=0\npushi %d\nret\nend",
		name, version, n)
	p, err := vm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPutProgramNeverClobbers pins the regression the release store
// exists to prevent: publishing a class with an existing name but
// different bytecode must allocate a new release, never overwrite the
// old one — the old digest stays resolvable for in-flight queries.
func TestPutProgramNeverClobbers(t *testing.T) {
	repo := NewRepository()
	v1 := prog(t, "Clip", "1.0", 1)
	v2 := prog(t, "Clip", "1.0", 2) // same name, same version tag, different body
	if v1.Checksum() == v2.Checksum() {
		t.Fatal("test programs share a digest")
	}
	if _, err := repo.PutProgram(v1); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.PutProgram(v2); err != nil {
		t.Fatal(err)
	}
	rels := repo.Releases("clip")
	if len(rels) != 2 {
		t.Fatalf("want 2 releases, got %d", len(rels))
	}
	// The second publish is active; the first is still addressable by
	// its digest (deploy-by-digest for queries planned against it).
	active, _ := repo.ActiveRelease("Clip")
	if active.Digest != v2.Checksum() {
		t.Errorf("active digest = %s, want v2 %s", active.Digest, v2.Checksum())
	}
	old, ok := repo.Resolve("Clip", v1.Checksum())
	if !ok {
		t.Fatal("v1 digest no longer resolvable after same-name publish")
	}
	if string(old.Blob) != string(v1.Encode()) {
		t.Error("v1 blob was rewritten")
	}
	// Reused tags are disambiguated, not replaced.
	if rels[0].Tag == rels[1].Tag {
		t.Errorf("both releases hold tag %q", rels[0].Tag)
	}
	// Republishing identical bytes is idempotent: no third release.
	if _, err := repo.PutProgram(v1); err != nil {
		t.Fatal(err)
	}
	if got := len(repo.Releases("Clip")); got != 2 {
		t.Errorf("idempotent republish grew history to %d", got)
	}
	active, _ = repo.ActiveRelease("Clip")
	if active.Digest != v1.Checksum() {
		t.Error("republish did not move the active pointer back")
	}
}

func TestStageCanaryPromote(t *testing.T) {
	repo := NewRepository()
	v1 := prog(t, "Scale", "1.0", 10)
	v2 := prog(t, "Scale", "2.0", 20)
	if _, err := repo.PutProgram(v1); err != nil {
		t.Fatal(err)
	}
	rel, err := repo.StageProgram(v2, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tag != "v2" || rel.Digest != v2.Checksum() {
		t.Fatalf("staged release = %+v", rel)
	}
	// Staging is inert: active still serves v1.
	if rel, _ := repo.ActiveRelease("Scale"); rel.Digest != v1.Checksum() {
		t.Error("staging moved the active pointer")
	}
	// Promote: active moves, history intact, v1 still resolvable.
	if _, err := repo.Promote("Scale", "v2"); err != nil {
		t.Fatal(err)
	}
	if rel, _ := repo.ActiveRelease("Scale"); rel.Digest != v2.Checksum() {
		t.Error("promote did not move the active pointer")
	}
	if _, ok := repo.Resolve("Scale", v1.Checksum()); !ok {
		t.Error("the previously active release vanished from history")
	}
	if _, err := repo.Promote("Scale", "ghost"); err == nil {
		t.Error("promoting an unknown tag accepted")
	}
	if _, err := repo.Promote("Ghost", "v2"); err == nil {
		t.Error("promoting an unknown class accepted")
	}
}

func TestTagSanitization(t *testing.T) {
	repo := NewRepository()
	if _, err := repo.PutProgram(prog(t, "Pad", "1.0", 1)); err != nil {
		t.Fatal(err)
	}
	rel, err := repo.StageProgram(prog(t, "Pad", "1.0", 2), "v 2/bad")
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(rel.Tag, " /") {
		t.Errorf("tag %q kept unsafe runes", rel.Tag)
	}
}

// TestManifestRoundTrip persists a repository with a staged release and
// reloads it: histories, the active pointer, tags and capability
// manifests must survive, and every blob is re-verified on the way in
// (zero trust in the disk). A manifest an older version wrote, with a
// canary attribute, still loads: the attribute is ignored.
func TestManifestRoundTrip(t *testing.T) {
	reg := ops.Builtins()
	repo := NewRepositoryFromRegistry(reg)
	if _, err := repo.StageProgram(prog(t, "AvgEnergy", "2.0", 42), "v2"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := repo.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestFile)
	manifest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(manifest), "canary=") {
		t.Fatalf("manifest records a canary:\n%s", manifest)
	}
	old := strings.Replace(string(manifest), `<class name="AvgEnergy"`, `<class name="AvgEnergy" canary="v2"`, 1)
	if old == string(manifest) {
		t.Fatal("failed to write an old-style manifest")
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	repo2 := NewRepository()
	if err := repo2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if len(repo2.Names()) != len(repo.Names()) {
		t.Fatalf("loaded %d classes, want %d", len(repo2.Names()), len(repo.Names()))
	}
	if len(repo2.Releases("AvgEnergy")) != 2 {
		t.Errorf("release history not preserved: %d entries", len(repo2.Releases("AvgEnergy")))
	}
	a1, _ := repo.ActiveRelease("AvgEnergy")
	a2, ok := repo2.ActiveRelease("AvgEnergy")
	if !ok || a1.Digest != a2.Digest {
		t.Error("active pointer lost in round trip")
	}
	// Capability manifests come from the local verifier, not the
	// manifest file, and must match what publication recorded.
	for _, name := range repo.Names() {
		r1, _ := repo.ActiveRelease(name)
		r2, _ := repo2.ActiveRelease(name)
		if strings.Join(r1.Caps, ",") != strings.Join(r2.Caps, ",") {
			t.Errorf("%s caps: %v != %v", name, r1.Caps, r2.Caps)
		}
	}
}

// TestLoadDirTamper flips a byte inside a persisted blob: the load must
// refuse the directory (digest mismatch against the manifest).
func TestLoadDirTamper(t *testing.T) {
	repo := NewRepository()
	if _, err := repo.PutProgram(prog(t, "Tamper", "1.0", 7)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := repo.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".mvmc") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := NewRepository().LoadDir(dir); err == nil {
		t.Fatal("tampered blob accepted")
	}
}

// TestQuickPublishResolve property-tests the content addressing:
// whatever gets published resolves by its digest with the exact blob
// bytes, and same-digest publishes stay idempotent.
func TestQuickPublishResolve(t *testing.T) {
	repo := NewRepository()
	seen := make(map[string]bool)
	f := func(n int16) bool {
		p := prog(t, "Quick", "1.0", int(n))
		rel, err := repo.StageProgram(p, fmt.Sprintf("t%d", n))
		if err != nil {
			return false
		}
		if rel.Digest != p.Checksum() {
			return false
		}
		got, ok := repo.Resolve("Quick", rel.Digest)
		if !ok || string(got.Blob) != string(p.Encode()) {
			return false
		}
		seen[rel.Digest] = true
		return len(repo.Releases("Quick")) == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadDirWithoutManifest: an existing directory with neither a
// manifest nor blobs is a clean start; blobs without the manifest that
// vouches for them are refused by an error naming the missing file; a
// directory that does not exist is an error.
func TestLoadDirWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	repo := NewRepository()
	if err := repo.LoadDir(dir); err != nil {
		t.Fatalf("empty directory refused: %v", err)
	}
	if names := repo.Names(); len(names) != 0 {
		t.Errorf("empty directory published %v", names)
	}
	if err := NewRepository().LoadDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("nonexistent directory accepted")
	}

	p := prog(t, "Bare", "1.0", 5)
	if err := os.WriteFile(filepath.Join(dir, "Bare.mvmc"), p.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	err := repo.LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), manifestFile) {
		t.Fatalf("bare blob directory: err = %v, want one naming %s", err, manifestFile)
	}
	if _, ok := repo.ActiveRelease("Bare"); ok {
		t.Error("unmanifested blob was published")
	}
}

// TestGetReleaseByTag covers tag-addressed resolution, including the
// empty tag (no release) and unknown classes.
func TestGetReleaseByTag(t *testing.T) {
	reg := ops.Builtins()
	c := New(reg, NewRepositoryFromRegistry(reg))
	repo := c.Repo()
	if _, err := repo.StageProgram(prog(t, "AvgEnergy", "2.0", 9), "v2"); err != nil {
		t.Fatal(err)
	}
	rel, ok := repo.GetRelease("avgenergy", "v2")
	if !ok || rel.Tag != "v2" {
		t.Fatalf("GetRelease = %+v, %v", rel, ok)
	}
	if _, ok := repo.GetRelease("AvgEnergy", "ghost"); ok {
		t.Error("unknown tag resolved")
	}
	if _, ok := repo.GetRelease("Ghost", "v2"); ok {
		t.Error("unknown class resolved")
	}
}

// TestLoadDirCostStamp pins the cost side of the zero-trust reload: the
// manifest carries the verifier's static cost summary, a round trip
// preserves it, and a manifest whose cost stamp disagrees with the
// recomputed analysis is refused — a manifest cannot promise a cheaper
// program than the blob delivers.
func TestLoadDirCostStamp(t *testing.T) {
	repo := NewRepository()
	rel, err := repo.PutProgram(prog(t, "Costed", "1.0", 7))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cost.IsZero() || !rel.Cost.Bounded {
		t.Fatalf("publish did not stamp a bounded cost: %+v", rel.Cost)
	}
	dir := t.TempDir()
	if err := repo.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(manifest), `cost="`+rel.Cost.String()+`"`) {
		t.Fatalf("manifest missing cost stamp %q:\n%s", rel.Cost.String(), manifest)
	}

	repo2 := NewRepository()
	if err := repo2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	rel2, ok := repo2.ActiveRelease("Costed")
	if !ok || rel2.Cost != rel.Cost {
		t.Fatalf("cost lost in round trip: %+v vs %+v", rel2.Cost, rel.Cost)
	}

	// Tamper: claim a one-instruction budget in the manifest.
	cheaper := rel.Cost
	cheaper.BudgetInstrs = 1
	doctored := strings.Replace(string(manifest), rel.Cost.String(), cheaper.String(), 1)
	if doctored == string(manifest) {
		t.Fatal("failed to doctor manifest")
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewRepository().LoadDir(dir); err == nil ||
		!strings.Contains(err.Error(), "cost") {
		t.Fatalf("doctored cost stamp accepted: %v", err)
	}
}
