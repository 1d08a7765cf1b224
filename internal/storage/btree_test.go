package storage

import (
	"math/rand"
	"sort"
	"testing"
)

func newBTree(t *testing.T) *BTree {
	t.Helper()
	bt, err := CreateBTree(NewBufferPool(NewMemDisk(), 64))
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

func TestBTreeBasic(t *testing.T) {
	bt := newBTree(t)
	for i := int64(0); i < 100; i++ {
		if err := bt.Insert(i, uint64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := bt.Search(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 420 {
		t.Errorf("Search(42) = %v", vals)
	}
	if vals, _ := bt.Search(1000); len(vals) != 0 {
		t.Errorf("Search(missing) = %v", vals)
	}
	if n, _ := bt.Len(); n != 100 {
		t.Errorf("Len = %d", n)
	}
}

func TestBTreeSplitsAndOrder(t *testing.T) {
	bt := newBTree(t)
	// Enough entries to force multiple leaf and internal splits.
	const n = 20000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, k := range perm {
		if err := bt.Insert(int64(k), uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	err := bt.Range(-1<<62, 1<<62, func(k int64, v uint64) bool {
		got = append(got, k)
		if uint64(k) != v {
			t.Fatalf("key %d has value %d", k, v)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("range returned %d entries, want %d", len(got), n)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("range output not sorted")
	}
}

func TestBTreeDuplicates(t *testing.T) {
	bt := newBTree(t)
	for i := uint64(0); i < 700; i++ { // spills duplicates across leaves
		if err := bt.Insert(5, i); err != nil {
			t.Fatal(err)
		}
	}
	bt.Insert(4, 999)
	bt.Insert(6, 111)
	vals, err := bt.Search(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 700 {
		t.Fatalf("Search(5) returned %d values, want 700", len(vals))
	}
}

func TestBTreeRange(t *testing.T) {
	bt := newBTree(t)
	for i := int64(0); i < 1000; i += 2 {
		bt.Insert(i, uint64(i))
	}
	var got []int64
	bt.Range(10, 20, func(k int64, v uint64) bool {
		got = append(got, k)
		return true
	})
	want := []int64{10, 12, 14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("range [10,20] = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range [10,20] = %v", got)
		}
	}
	// Early stop.
	var count int
	bt.Range(0, 1000, func(k int64, v uint64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
	// Negative keys order correctly.
	bt.Insert(-5, 1)
	first := int64(0)
	bt.Range(-100, 100, func(k int64, v uint64) bool {
		first = k
		return false
	})
	if first != -5 {
		t.Errorf("first key = %d, want -5", first)
	}
}

// TestBTreeAgainstReference drives random inserts against a Go map
// reference model.
func TestBTreeAgainstReference(t *testing.T) {
	bt := newBTree(t)
	ref := make(map[int64][]uint64)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		k := int64(rng.Intn(300) - 150)
		v := uint64(rng.Intn(1_000_000))
		if err := bt.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		ref[k] = append(ref[k], v)
	}
	for k, want := range ref {
		got, err := bt.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		w := append([]uint64(nil), want...)
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		if len(got) != len(w) {
			t.Fatalf("key %d: got %d values, want %d", k, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("key %d: values differ", k)
			}
		}
	}
}
