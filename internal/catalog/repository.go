package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mocha/internal/ops"
	"mocha/internal/vm"
)

// classHistory is the full release record of one operator: every
// publication in order, plus the active pointer (-1 = none).
type classHistory struct {
	name     string // display name
	releases []*Release
	active   int
}

// tagIndex resolves a tag to its release index, or -1.
func (h *classHistory) tagIndex(tag string) int {
	for i, rel := range h.releases {
		if rel.Tag == tag {
			return i
		}
	}
	return -1
}

// digestIndex resolves a content digest to its release index, or -1.
func (h *classHistory) digestIndex(digest string) int {
	for i, rel := range h.releases {
		if rel.Digest == digest {
			return i
		}
	}
	return -1
}

// Repository is the well-known code repository: a versioned,
// content-addressed release store. Administrators publish classes here;
// the QPC deploys them to remote sites on demand. Every publication is
// an immutable release — same-name/different-blob publishes never
// clobber history — and a per-class active pointer selects which release
// new queries plan against. Which release a rollout canaries is the QPC's
// record, not the store's.
type Repository struct {
	mu      sync.RWMutex
	classes map[string]*classHistory
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{classes: make(map[string]*classHistory)}
}

// NewRepositoryFromRegistry registers every operator program of an
// operator registry — the usual bootstrap for the builtin library.
func NewRepositoryFromRegistry(reg *ops.Registry) *Repository {
	r := NewRepository()
	for _, name := range reg.Names() {
		d, _ := reg.Lookup(name)
		if _, err := r.PutProgram(d.Program()); err != nil {
			// Builtin operators are assembled (and therefore verified)
			// at init; a failure here is a programming error.
			panic(err)
		}
	}
	return r
}

// publish verifies p and records it as a release of its class. A blob
// already in the history is reused (publication is idempotent by
// digest); a new blob always allocates a new release, with the requested
// tag disambiguated if another blob already holds it. When activate is
// set the release becomes the class's active version.
func (r *Repository) publish(p *vm.Program, tag string, activate bool) (*Release, error) {
	info := p.Verified()
	if info == nil {
		if err := vm.Verify(p); err != nil {
			return nil, fmt.Errorf("catalog: publish %s: %w", p.Name, err)
		}
		info = p.Verified()
	}
	digest := p.Checksum()

	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(p.Name)
	h, ok := r.classes[key]
	if !ok {
		h = &classHistory{name: p.Name, active: -1}
		r.classes[key] = h
	}
	if idx := h.digestIndex(digest); idx >= 0 {
		if activate {
			h.active = idx
		}
		return h.releases[idx], nil
	}
	if tag == "" {
		tag = p.Version
	}
	tag = sanitizeTag(tag)
	if tag == "" {
		tag = fmt.Sprintf("r%d", len(h.releases)+1)
	}
	// The regression this store exists to prevent: a same-name publish
	// with different bytes must never replace an existing release. A
	// reused tag gets a "+rN" suffix so both releases stay addressable.
	if h.tagIndex(tag) >= 0 {
		tag = fmt.Sprintf("%s+r%d", tag, len(h.releases)+1)
	}
	rel := &Release{
		Class:     h.name,
		Tag:       tag,
		Digest:    digest,
		Caps:      append([]string(nil), info.Capabilities...),
		Cost:      info.Cost,
		Published: time.Now(),
		Seq:       len(h.releases) + 1,
		Blob:      p.Encode(),
	}
	h.releases = append(h.releases, rel)
	if activate {
		h.active = len(h.releases) - 1
	}
	return rel, nil
}

// PutProgram publishes a compiled program and activates it (the
// administrator's publish-and-go path). Publication is the trust
// boundary of the code repository: a program that fails the static
// verifier never becomes a release, so every site that later pulls the
// class knows it passed the ladder at least once (and re-verifies
// locally anyway, since the stamp does not travel on the wire).
func (r *Repository) PutProgram(p *vm.Program) (*Release, error) {
	return r.publish(p, "", true)
}

// StageProgram publishes a compiled program as a release without
// activating it — canary material for a ROLLOUT. An empty tag derives
// from the program's version directive.
func (r *Repository) StageProgram(p *vm.Program, tag string) (*Release, error) {
	return r.publish(p, tag, false)
}

// Resolve addresses a class release by name and content digest — the
// deploy-by-digest path, which keeps in-flight queries pinned to the
// release they planned against regardless of later pointer moves.
func (r *Repository) Resolve(name, digest string) (*Release, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.classes[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	idx := h.digestIndex(digest)
	if idx < 0 {
		return nil, false
	}
	return h.releases[idx], true
}

// Releases returns the full publication history of a class, oldest
// first.
func (r *Repository) Releases(name string) []*Release {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.classes[strings.ToLower(name)]
	if !ok {
		return nil
	}
	return append([]*Release(nil), h.releases...)
}

// GetRelease resolves one release of a class by tag.
func (r *Repository) GetRelease(name, tag string) (*Release, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.classes[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	idx := h.tagIndex(tag)
	if idx < 0 {
		return nil, false
	}
	return h.releases[idx], true
}

// ActiveRelease returns the class's active release, if any.
func (r *Repository) ActiveRelease(name string) (*Release, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.classes[strings.ToLower(name)]
	if !ok || h.active < 0 {
		return nil, false
	}
	return h.releases[h.active], true
}

// Promote moves the class's active pointer to the release with the
// given tag — the successful end of a rollout.
func (r *Repository) Promote(name, tag string) (*Release, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.classes[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: no class named %q in the code repository", name)
	}
	idx := h.tagIndex(tag)
	if idx < 0 {
		return nil, fmt.Errorf("catalog: class %s has no release tagged %q", h.name, tag)
	}
	h.active = idx
	return h.releases[idx], nil
}

// Names lists registered classes, sorted.
func (r *Repository) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.classes))
	for _, h := range r.classes {
		out = append(out, h.name)
	}
	sort.Strings(out)
	return out
}
