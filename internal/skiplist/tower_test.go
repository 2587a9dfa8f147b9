package skiplist

import (
	"math/rand"
	"testing"
	"unsafe"

	"qsense/internal/mem"
)

// TestNodeLayout pins the node's two cache lines (package doc, "Node
// layout"): 112 bytes, which mem's 16-byte slot header makes a 128-byte slot,
// with everything a hop reads in the node's first 48 bytes — the rest of the
// slot's first line.
func TestNodeLayout(t *testing.T) {
	var n node
	if size := unsafe.Sizeof(n); size != 112 {
		t.Errorf("node is %d bytes, want 112", size)
	}
	for name, end := range map[string]uintptr{
		"key":        unsafe.Offsetof(n.key) + unsafe.Sizeof(n.key),
		"topLevel":   unsafe.Offsetof(n.topLevel) + unsafe.Sizeof(n.topLevel),
		"state":      unsafe.Offsetof(n.state) + unsafe.Sizeof(n.state),
		"val":        unsafe.Offsetof(n.val) + unsafe.Sizeof(n.val),
		"upper":      unsafe.Offsetof(n.upper) + unsafe.Sizeof(n.upper),
		"next[0..1]": unsafe.Offsetof(n.next) + 2*unsafe.Sizeof(n.next[0]),
	} {
		if end > 48 {
			t.Errorf("node.%s ends at byte %d, past the first line's 48", name, end)
		}
	}
}

// tallTowers counts the level-0 members taller than inlineLevels; quiesced
// only.
func (s *SkipList) tallTowers() int {
	n := 0
	for r := mem.Ref(s.pool.Get(s.head).link(0).Load()).Untagged(); r != s.tail; {
		nd := s.pool.Get(r)
		if nd.topLevel > inlineLevels {
			n++
		}
		r = mem.Ref(nd.link(0).Load()).Untagged()
	}
	return n
}

// TestRecycledTowersRelink: under churn a slot comes back with an upper
// array — its own or one from upperArrays — whose words are a dead tower's,
// marked. The inserter must zero them before its first claim, or the claim
// reads a stale mark as a deleter's and abandons every level above it.
// Poison is off, so nothing else clears a reused array, and Validate checks
// every tower is whole.
func TestRecycledTowersRelink(t *testing.T) {
	s, d, hs := newSetWith(t, "qsbr", 1, Config{})
	defer d.Close()
	h := hs[0]
	rng := rand.New(rand.NewSource(33))
	for range 200_000 {
		if k := int64(rng.Intn(1024)); rng.Intn(2) == 0 {
			h.Insert(k)
		} else {
			h.Delete(k)
		}
	}
	if n, msg := s.Validate(); msg != "" {
		t.Fatalf("validate after churn: %s (%d members, %d taller than %d levels)", msg, n, s.tallTowers(), inlineLevels)
	}
}

// TestChurnAllocatesNothing: once warm, inserting and deleting allocates
// nothing, tall towers included — an upper array comes from the slot or from
// upperArrays, never from the heap. Every batch inserts and deletes the same
// 32 keys from the same tower-height stream, one that draws at least three
// towers taller than inlineLevels, so an array left to the collector would
// cost allocations in every batch.
func TestChurnAllocatesNothing(t *testing.T) {
	const keys = 32
	s, d, hs := newSetWith(t, "qsbr", 1, Config{})
	defer d.Close()
	h := hs[0]
	seed := uint64(1)
	for ; ; seed++ {
		probe, tall := *h, 0
		probe.rng = seed
		for range keys {
			if probe.randomLevel() > inlineLevels {
				tall++
			}
		}
		if tall >= 3 {
			break
		}
	}
	tall := 0
	batch := func() {
		h.rng = seed
		for k := int64(0); k < keys; k++ {
			h.Insert(k)
		}
		tall += s.tallTowers()
		for k := int64(0); k < keys; k++ {
			h.Delete(k)
		}
	}
	for range 100 {
		batch() // grows the pool, the retire buckets and the finger table
	}
	tall = 0
	allocs := testing.AllocsPerRun(100, batch)
	if allocs != 0 && !raceDetector {
		t.Errorf("%v allocations per batch of %d inserts and %d deletes, want 0", allocs, keys, keys)
	}
	if tall < 3 {
		t.Errorf("the measured batches drew %d towers taller than %d levels", tall, inlineLevels)
	}
}
