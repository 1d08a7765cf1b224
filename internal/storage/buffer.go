package storage

import (
	"fmt"
	"sync"
)

// BufferPool caches pages in fixed-size frames with LRU replacement and
// pin counting. All heap file and B+tree page access goes through a pool.
type BufferPool struct {
	disk   DiskManager
	frames int

	mu    sync.Mutex
	table map[PageID]*Frame
	// lru is the sentinel of a circular list, threaded through the
	// frames themselves, of unpinned frames: lru.next is the least
	// recently used. Unpinning links a frame in place, so a release
	// allocates nothing.
	lru    Frame
	nalloc int

	// Hits, Misses and Evictions report cache behaviour; they feed the
	// DB-time accounting of the experiments.
	Hits, Misses, Evictions int64
}

// Frame is one pinned page in the pool. Callers must Release frames when
// done; the data slice is only valid while pinned.
type Frame struct {
	pool  *BufferPool
	id    PageID
	data  []byte
	pins  int
	dirty bool
	// prev and next link the frame into the pool's LRU list while it is
	// unpinned; both are nil while it is pinned.
	prev, next *Frame
}

// NewBufferPool creates a pool of the given number of frames over disk.
func NewBufferPool(disk DiskManager, frames int) *BufferPool {
	if frames < 1 {
		frames = 1
	}
	bp := &BufferPool{
		disk:   disk,
		frames: frames,
		table:  make(map[PageID]*Frame, frames),
	}
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	return bp
}

// ID returns the page id of the frame.
func (f *Frame) ID() PageID { return f.id }

// Data returns the page bytes. Mutating callers must MarkDirty.
func (f *Frame) Data() []byte { return f.data }

// MarkDirty records that the page must be written back before eviction.
func (f *Frame) MarkDirty() { f.dirty = true }

// Release unpins the frame; the page becomes evictable when its pin
// count reaches zero.
func (f *Frame) Release() { f.pool.unpin(f) }

// Fetch pins the page, reading it from disk on a miss.
func (bp *BufferPool) Fetch(id PageID) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.table[id]; ok {
		bp.Hits++
		bp.pinLocked(f)
		return f, nil
	}
	bp.Misses++
	f, err := bp.newFrameLocked(id)
	if err != nil {
		return nil, err
	}
	if err := bp.disk.ReadPage(id, f.data); err != nil {
		bp.dropLocked(f)
		return nil, err
	}
	return f, nil
}

// NewPage allocates a fresh page on disk and pins it zeroed.
func (bp *BufferPool) NewPage() (*Frame, error) {
	id, err := bp.disk.AllocatePage()
	if err != nil {
		return nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, err := bp.newFrameLocked(id)
	if err != nil {
		return nil, err
	}
	for i := range f.data {
		f.data[i] = 0
	}
	f.dirty = true
	return f, nil
}

// newFrameLocked finds or evicts a frame and pins it for page id.
func (bp *BufferPool) newFrameLocked(id PageID) (*Frame, error) {
	var f *Frame
	if bp.nalloc < bp.frames {
		bp.nalloc++
		f = &Frame{pool: bp, data: make([]byte, PageSize)}
	} else {
		f = bp.lru.next
		if f == &bp.lru {
			return nil, fmt.Errorf("storage: buffer pool exhausted (%d frames all pinned)", bp.frames)
		}
		bp.unlinkLocked(f)
		delete(bp.table, f.id)
		bp.Evictions++
		if f.dirty {
			if err := bp.disk.WritePage(f.id, f.data); err != nil {
				return nil, fmt.Errorf("storage: evicting page %d: %w", f.id, err)
			}
			f.dirty = false
		}
	}
	f.id = id
	f.pins = 1
	bp.table[id] = f
	return f, nil
}

func (bp *BufferPool) pinLocked(f *Frame) {
	if f.pins == 0 && f.next != nil {
		bp.unlinkLocked(f)
	}
	f.pins++
}

// pushBackLocked makes f the most recently used unpinned frame.
func (bp *BufferPool) pushBackLocked(f *Frame) {
	last := bp.lru.prev
	f.prev, f.next = last, &bp.lru
	last.next, bp.lru.prev = f, f
}

// unlinkLocked takes f out of the LRU list.
func (bp *BufferPool) unlinkLocked(f *Frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

func (bp *BufferPool) unpin(f *Frame) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f.pins <= 0 {
		panic("storage: unpin of unpinned frame")
	}
	f.pins--
	if f.pins == 0 {
		bp.pushBackLocked(f)
	}
}

// dropLocked removes a just-allocated frame after a failed read.
func (bp *BufferPool) dropLocked(f *Frame) {
	delete(bp.table, f.id)
	f.pins = 0
	bp.pushBackLocked(f)
}

// FlushAll writes every dirty cached page back to disk.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.table {
		if f.dirty {
			if err := bp.disk.WritePage(f.id, f.data); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return bp.disk.Sync()
}
