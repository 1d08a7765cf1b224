package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// B+tree over int64 keys mapping to uint64 values. Duplicate keys are
// allowed. Its one caller outside tests is the benchmark's
// storage.btree_search_ns driver. The tree lives in its own page file:
//
// Page 0 (meta): [0:4] magic "MBT1", [4:8] root page, [8:16] entry count.
//
// Node pages:
//
//	[0]   node type: 1 = leaf, 2 = internal
//	[1:3] key count
//	leaf:     [3:7] next leaf page; entries at [7+16i]: key i64, value u64
//	internal: [3:7] child 0; entries at [7+12i]: key i64, child u32
//	          (keys[i] is the smallest key reachable under child i+1)
const (
	btreeMagic   = "MBT1"
	nodeLeaf     = 1
	nodeInternal = 2

	leafHdr    = 7
	leafEntry  = 16
	leafCap    = (PageSize - leafHdr) / leafEntry
	innerHdr   = 7
	innerEntry = 12
	innerCap   = (PageSize - innerHdr) / innerEntry
)

// BTree is a disk-backed B+tree. It is safe for concurrent use;
// operations are serialized.
type BTree struct {
	bp *BufferPool
	mu sync.Mutex
}

// CreateBTree initializes a new index on an empty disk.
func CreateBTree(bp *BufferPool) (*BTree, error) {
	if bp.disk.NumPages() != 0 {
		return nil, fmt.Errorf("storage: create btree on non-empty disk")
	}
	meta, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	defer meta.Release()
	root, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	defer root.Release()
	d := root.Data()
	d[0] = nodeLeaf
	binary.BigEndian.PutUint16(d[1:], 0)
	putPageID(d[3:], InvalidPageID)
	root.MarkDirty()

	m := meta.Data()
	copy(m[0:4], btreeMagic)
	putPageID(m[4:], root.ID())
	binary.BigEndian.PutUint64(m[8:], 0)
	meta.MarkDirty()
	return &BTree{bp: bp}, nil
}

// Len returns the number of entries.
func (t *BTree) Len() (uint64, error) {
	meta, err := t.bp.Fetch(0)
	if err != nil {
		return 0, err
	}
	defer meta.Release()
	return binary.BigEndian.Uint64(meta.Data()[8:]), nil
}

func leafKey(d []byte, i int) int64 {
	return int64(binary.BigEndian.Uint64(d[leafHdr+leafEntry*i:]))
}
func leafVal(d []byte, i int) uint64 {
	return binary.BigEndian.Uint64(d[leafHdr+leafEntry*i+8:])
}
func putLeafEntry(d []byte, i int, k int64, v uint64) {
	binary.BigEndian.PutUint64(d[leafHdr+leafEntry*i:], uint64(k))
	binary.BigEndian.PutUint64(d[leafHdr+leafEntry*i+8:], v)
}
func innerKey(d []byte, i int) int64 {
	return int64(binary.BigEndian.Uint64(d[innerHdr+innerEntry*i:]))
}
func innerChild(d []byte, i int) PageID {
	if i == 0 {
		return getPageID(d[3:])
	}
	return getPageID(d[innerHdr+innerEntry*(i-1)+8:])
}
func putInnerEntry(d []byte, i int, k int64, child PageID) {
	binary.BigEndian.PutUint64(d[innerHdr+innerEntry*i:], uint64(k))
	putPageID(d[innerHdr+innerEntry*i+8:], child)
}
func nodeKeys(d []byte) int       { return int(binary.BigEndian.Uint16(d[1:])) }
func setNodeKeys(d []byte, n int) { binary.BigEndian.PutUint16(d[1:], uint16(n)) }

// lowerBoundLeaf returns the first index with key >= k.
func lowerBoundLeaf(d []byte, k int64) int {
	lo, hi := 0, nodeKeys(d)
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKey(d, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns which child subtree of an internal node covers the
// leftmost occurrence of k. The comparison is strict so that duplicate
// keys (which may equal a separator after a split) are always reached by
// descending left and then walking the leaf chain rightward.
func childIndex(d []byte, k int64) int {
	lo, hi := 0, nodeKeys(d)
	for lo < hi {
		mid := (lo + hi) / 2
		if innerKey(d, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

type splitResult struct {
	split   bool
	sepKey  int64
	newPage PageID
}

// Insert adds a (key, value) entry.
func (t *BTree) Insert(key int64, val uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	meta, err := t.bp.Fetch(0)
	if err != nil {
		return err
	}
	root := getPageID(meta.Data()[4:])
	res, err := t.insertInto(root, key, val)
	if err != nil {
		meta.Release()
		return err
	}
	if res.split {
		// Grow a new root.
		nr, err := t.bp.NewPage()
		if err != nil {
			meta.Release()
			return err
		}
		d := nr.Data()
		d[0] = nodeInternal
		setNodeKeys(d, 1)
		putPageID(d[3:], root)
		putInnerEntry(d, 0, res.sepKey, res.newPage)
		nr.MarkDirty()
		putPageID(meta.Data()[4:], nr.ID())
		nr.Release()
	}
	n := binary.BigEndian.Uint64(meta.Data()[8:])
	binary.BigEndian.PutUint64(meta.Data()[8:], n+1)
	meta.MarkDirty()
	meta.Release()
	return nil
}

func (t *BTree) insertInto(page PageID, key int64, val uint64) (splitResult, error) {
	f, err := t.bp.Fetch(page)
	if err != nil {
		return splitResult{}, err
	}
	d := f.Data()
	switch d[0] {
	case nodeLeaf:
		res := t.insertLeaf(f, key, val)
		f.Release()
		return res, nil
	case nodeInternal:
		ci := childIndex(d, key)
		child := innerChild(d, ci)
		res, err := t.insertInto(child, key, val)
		if err != nil {
			f.Release()
			return splitResult{}, err
		}
		if !res.split {
			f.Release()
			return splitResult{}, nil
		}
		out := t.insertInner(f, ci, res.sepKey, res.newPage)
		f.Release()
		return out, nil
	}
	f.Release()
	return splitResult{}, fmt.Errorf("storage: btree page %d has bad node type %d", page, d[0])
}

// insertLeaf places the entry, splitting the leaf when full.
func (t *BTree) insertLeaf(f *Frame, key int64, val uint64) splitResult {
	d := f.Data()
	n := nodeKeys(d)
	pos := lowerBoundLeaf(d, key)
	if n < leafCap {
		copy(d[leafHdr+leafEntry*(pos+1):leafHdr+leafEntry*(n+1)], d[leafHdr+leafEntry*pos:leafHdr+leafEntry*n])
		putLeafEntry(d, pos, key, val)
		setNodeKeys(d, n+1)
		f.MarkDirty()
		return splitResult{}
	}
	// Split: move the upper half into a new leaf.
	nf, err := t.bp.NewPage()
	if err != nil {
		// Propagate via panic-free path: treat as fatal corruption-free
		// error by re-inserting after split failure is not possible;
		// surface it through a sentinel. In practice NewPage only fails
		// on disk errors.
		panic(fmt.Sprintf("storage: btree leaf split allocation failed: %v", err))
	}
	nd := nf.Data()
	nd[0] = nodeLeaf
	mid := (n + 1) / 2
	// Temporarily materialize the ordered entries including the new one.
	type entry struct {
		k int64
		v uint64
	}
	entries := make([]entry, 0, n+1)
	for i := 0; i < n; i++ {
		entries = append(entries, entry{leafKey(d, i), leafVal(d, i)})
	}
	entries = append(entries[:pos], append([]entry{{key, val}}, entries[pos:]...)...)
	for i := 0; i < mid; i++ {
		putLeafEntry(d, i, entries[i].k, entries[i].v)
	}
	setNodeKeys(d, mid)
	for i := mid; i < len(entries); i++ {
		putLeafEntry(nd, i-mid, entries[i].k, entries[i].v)
	}
	setNodeKeys(nd, len(entries)-mid)
	// Link leaves: new leaf takes over the old next pointer.
	putPageID(nd[3:], getPageID(d[3:]))
	putPageID(d[3:], nf.ID())
	f.MarkDirty()
	nf.MarkDirty()
	sep := leafKey(nd, 0)
	newPage := nf.ID()
	nf.Release()
	return splitResult{split: true, sepKey: sep, newPage: newPage}
}

// insertInner adds a separator/child after child index ci, splitting the
// node when full.
func (t *BTree) insertInner(f *Frame, ci int, sepKey int64, newChild PageID) splitResult {
	d := f.Data()
	n := nodeKeys(d)
	if n < innerCap {
		copy(d[innerHdr+innerEntry*(ci+1):innerHdr+innerEntry*(n+1)], d[innerHdr+innerEntry*ci:innerHdr+innerEntry*n])
		putInnerEntry(d, ci, sepKey, newChild)
		setNodeKeys(d, n+1)
		f.MarkDirty()
		return splitResult{}
	}
	// Split internal node.
	type entry struct {
		k int64
		c PageID
	}
	entries := make([]entry, 0, n+1)
	for i := 0; i < n; i++ {
		entries = append(entries, entry{innerKey(d, i), innerChild(d, i+1)})
	}
	entries = append(entries[:ci], append([]entry{{sepKey, newChild}}, entries[ci:]...)...)
	child0 := innerChild(d, 0)

	nf, err := t.bp.NewPage()
	if err != nil {
		panic(fmt.Sprintf("storage: btree inner split allocation failed: %v", err))
	}
	nd := nf.Data()
	nd[0] = nodeInternal

	mid := len(entries) / 2
	upKey := entries[mid].k
	// Left node keeps entries[:mid] with child0.
	putPageID(d[3:], child0)
	for i := 0; i < mid; i++ {
		putInnerEntry(d, i, entries[i].k, entries[i].c)
	}
	setNodeKeys(d, mid)
	// Right node: child0 = entries[mid].c, entries = entries[mid+1:].
	putPageID(nd[3:], entries[mid].c)
	for i := mid + 1; i < len(entries); i++ {
		putInnerEntry(nd, i-mid-1, entries[i].k, entries[i].c)
	}
	setNodeKeys(nd, len(entries)-mid-1)
	f.MarkDirty()
	nf.MarkDirty()
	newPage := nf.ID()
	nf.Release()
	return splitResult{split: true, sepKey: upKey, newPage: newPage}
}

// Search returns the values stored under key.
func (t *BTree) Search(key int64) ([]uint64, error) {
	var out []uint64
	err := t.Range(key, key, func(k int64, v uint64) bool {
		out = append(out, v)
		return true
	})
	return out, err
}

// Range calls fn for each entry with lo <= key <= hi in key order. fn
// returning false stops the scan.
func (t *BTree) Range(lo, hi int64, fn func(key int64, val uint64) bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	meta, err := t.bp.Fetch(0)
	if err != nil {
		return err
	}
	page := getPageID(meta.Data()[4:])
	meta.Release()
	// Descend to the leaf covering lo.
	for {
		f, err := t.bp.Fetch(page)
		if err != nil {
			return err
		}
		d := f.Data()
		if d[0] == nodeLeaf {
			f.Release()
			break
		}
		page = innerChild(d, childIndex(d, lo))
		f.Release()
	}
	// Walk the leaf chain.
	for page != InvalidPageID {
		f, err := t.bp.Fetch(page)
		if err != nil {
			return err
		}
		d := f.Data()
		n := nodeKeys(d)
		for i := lowerBoundLeaf(d, lo); i < n; i++ {
			k := leafKey(d, i)
			if k > hi {
				f.Release()
				return nil
			}
			if !fn(k, leafVal(d, i)) {
				f.Release()
				return nil
			}
		}
		next := getPageID(d[3:])
		f.Release()
		page = next
	}
	return nil
}
