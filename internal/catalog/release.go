package catalog

import (
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mocha/internal/vm"
)

// Release is one immutable, content-addressed publication of an operator
// class: the digest-addressed manifest entry (name, tag, blob digest,
// verifier capability manifest, publish time) plus the bytecode blob it
// names. Releases are never mutated or replaced — publishing the same
// class name with a different blob allocates a new release, and the
// per-class active pointer selects which one queries run.
type Release struct {
	// Class is the operator's display name (lookups are case-folded).
	Class string
	// Tag is the human-facing release tag ("1.0", "2.0+r3"). Unique per
	// class; auto-disambiguated at publish when a tag is reused for a
	// different blob.
	Tag string
	// Digest is the content address: the hex checksum of Blob, identical
	// to vm.Program.Checksum(). Two releases of a class never share it.
	Digest string
	// Caps is the verifier's host-capability manifest for the blob.
	Caps []string
	// Cost is the verifier's static cost summary for the blob, stamped
	// at publish and re-checked on LoadDir like Digest.
	Cost vm.CostInfo
	// Published is the publication time.
	Published time.Time
	// Seq is the 1-based publication order within the class.
	Seq int
	// Blob is the serialized vm.Program.
	Blob []byte
}

// tagOK reports whether every rune of a tag is filename- and XML-safe.
func tagOK(tag string) bool {
	if tag == "" {
		return false
	}
	for _, r := range tag {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '+' || r == '-':
		default:
			return false
		}
	}
	return true
}

// sanitizeTag maps an arbitrary version string onto the tag charset.
func sanitizeTag(tag string) string {
	if tagOK(tag) {
		return tag
	}
	var b strings.Builder
	for _, r := range tag {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.' || r == '_' || r == '+' || r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// Manifest persistence. SaveDir writes manifest.xml plus one blob file
// per release; LoadDir re-verifies every blob from scratch (zero-trust:
// the verification stamp never persists, and a digest recorded in the
// manifest must match the blob on disk byte for byte).

const manifestFile = "manifest.xml"

type manifestDoc struct {
	XMLName xml.Name        `xml:"code-repository"`
	Classes []manifestClass `xml:"class"`
}

// manifestClass is one class's history. Older manifests also carry a
// canary attribute; decoding ignores it, since a rollout lives in the
// QPC that runs it and does not survive a restart.
type manifestClass struct {
	Name     string            `xml:"name,attr"`
	Active   string            `xml:"active,attr,omitempty"`
	Releases []manifestRelease `xml:"release"`
}

type manifestRelease struct {
	Tag       string `xml:"tag,attr"`
	Digest    string `xml:"digest,attr"`
	Caps      string `xml:"caps,attr,omitempty"`
	Cost      string `xml:"cost,attr,omitempty"`
	Published string `xml:"published,attr,omitempty"`
	File      string `xml:"file,attr"`
}

// blobFile is the on-disk name of a release's bytecode.
func blobFile(class, tag string) string {
	return fmt.Sprintf("%s@%s.mvmc", class, tag)
}

// SaveDir persists the full release history: a manifest.xml naming every
// release (tag, digest, caps, publish time, the active pointer) and
// one content-addressed .mvmc blob per release.
func (r *Repository) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.RLock()
	doc := manifestDoc{}
	type blob struct {
		file string
		data []byte
	}
	var blobs []blob
	names := make([]string, 0, len(r.classes))
	for k := range r.classes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := r.classes[k]
		mc := manifestClass{Name: h.name}
		if h.active >= 0 {
			mc.Active = h.releases[h.active].Tag
		}
		for _, rel := range h.releases {
			file := blobFile(rel.Class, rel.Tag)
			mc.Releases = append(mc.Releases, manifestRelease{
				Tag:       rel.Tag,
				Digest:    rel.Digest,
				Caps:      strings.Join(rel.Caps, ","),
				Cost:      rel.Cost.String(),
				Published: rel.Published.UTC().Format(time.RFC3339Nano),
				File:      file,
			})
			blobs = append(blobs, blob{file: file, data: rel.Blob})
		}
		doc.Classes = append(doc.Classes, mc)
	}
	r.mu.RUnlock()

	data, err := xml.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return fmt.Errorf("catalog: encode repository manifest: %w", err)
	}
	for _, b := range blobs {
		if err := os.WriteFile(filepath.Join(dir, b.file), b.data, 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, manifestFile), data, 0o644)
}

// LoadDir restores a repository directory from its manifest.xml: the
// full release history, every blob decoded, re-verified, and
// digest-checked against the manifest — tampering with either file is
// an error. An existing directory holding neither a manifest nor blobs
// is a clean start; blobs without the manifest that vouches for them
// are refused.
func (r *Repository) LoadDir(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if os.IsNotExist(err) {
		blobs, err := filepath.Glob(filepath.Join(dir, "*.mvmc"))
		if err != nil {
			return err
		}
		if len(blobs) > 0 {
			return fmt.Errorf("catalog: %s holds %d .mvmc file(s) but no %s; unmanifested blobs are not loaded",
				dir, len(blobs), manifestFile)
		}
		_, err = os.Stat(dir)
		return err
	}
	if err != nil {
		return err
	}
	var doc manifestDoc
	if err := xml.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("catalog: decode repository manifest: %w", err)
	}
	for _, mc := range doc.Classes {
		h := &classHistory{name: mc.Name, active: -1}
		for i, mr := range mc.Releases {
			blob, err := os.ReadFile(filepath.Join(dir, mr.File))
			if err != nil {
				return fmt.Errorf("catalog: release %s@%s: %w", mc.Name, mr.Tag, err)
			}
			p, err := vm.Decode(blob)
			if err != nil {
				return fmt.Errorf("catalog: release %s@%s: %w", mc.Name, mr.Tag, err)
			}
			// Zero-trust reload: the stored stamp never counts. Re-verify
			// the blob and recompute its digest; a mismatch against the
			// manifest means the blob or the manifest was altered.
			info, err := vm.Analyze(p)
			if err != nil {
				return fmt.Errorf("catalog: release %s@%s failed re-verification: %w", mc.Name, mr.Tag, err)
			}
			if got := p.Checksum(); got != mr.Digest {
				return fmt.Errorf("catalog: release %s@%s: blob digest %s does not match manifest digest %s",
					mc.Name, mr.Tag, got, mr.Digest)
			}
			if !strings.EqualFold(p.Name, mc.Name) {
				return fmt.Errorf("catalog: release %s@%s: blob is program %q", mc.Name, mr.Tag, p.Name)
			}
			// The cost stamp is re-checked like the digest: the recomputed
			// analysis must reproduce the manifest's summary exactly, so a
			// manifest promising a cheaper (or better-bounded) program than
			// the blob delivers is refused. Legacy manifests without a
			// stamp are accepted and filled from the recomputation.
			if mr.Cost != "" && mr.Cost != info.Cost.String() {
				return fmt.Errorf("catalog: release %s@%s: blob cost %q does not match manifest cost %q",
					mc.Name, mr.Tag, info.Cost.String(), mr.Cost)
			}
			pub, _ := time.Parse(time.RFC3339Nano, mr.Published)
			h.releases = append(h.releases, &Release{
				Class:     mc.Name,
				Tag:       mr.Tag,
				Digest:    mr.Digest,
				Caps:      append([]string(nil), info.Capabilities...),
				Cost:      info.Cost,
				Published: pub,
				Seq:       i + 1,
				Blob:      blob,
			})
		}
		if mc.Active != "" {
			idx := h.tagIndex(mc.Active)
			if idx < 0 {
				return fmt.Errorf("catalog: class %s: active tag %q not in manifest", mc.Name, mc.Active)
			}
			h.active = idx
		}
		r.mu.Lock()
		r.classes[strings.ToLower(mc.Name)] = h
		r.mu.Unlock()
	}
	return nil
}
