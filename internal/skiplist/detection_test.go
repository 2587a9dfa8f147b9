package skiplist

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"qsense/internal/mem"
	"qsense/internal/reclaim"
)

// sabotageGuard frees a node the operation in flight is about to use, on the
// k-th Protect of that operation, over a guard that protects nothing (none):
// whatever the operation then does with the victim is a use-after-free, and
// the only thing between it and a silent wrong answer is the pool's
// generation check. The freed slot keeps its bytes (no Poison), so a walk
// that carried a raw *node instead of re-checking would finish the operation
// and return as if nothing had happened.
type sabotageGuard struct {
	reclaim.Guard
	h    *Handle
	key  int64  // the operation's key
	k    int    // which Protect call frees the victim; 0 never does
	pick victim // which node that is

	calls   int
	fired   bool
	left    mem.Ref // last traversal publication whose key is below key: the walk's left (nil = head)
	lastLvl int     // level of the last traversal publication; a rise means a new search pass
}

// A victim names the node to free on a Protect(slot, r) call, or the nil Ref
// when that call has no such node (the case is then skipped, not passed).
type victim func(g *sabotageGuard, slot int, r mem.Ref) mem.Ref

func (g *sabotageGuard) Protect(slot int, r mem.Ref) {
	g.calls++
	switch {
	case g.fired: // from here on only the code under test may touch the victim
	case g.calls == g.k:
		if v := g.pick(g, slot, r); !v.IsNil() {
			g.h.s.pool.Free(v)
			g.fired = true
		}
	case slot < g.h.hpScratch():
		if slot/2 > g.lastLvl {
			g.left = 0
		}
		g.lastLvl = slot / 2
		if g.h.s.pool.Get(r).key < g.key {
			g.left = r
		}
	}
	g.Guard.Protect(slot, r)
}

// (a) The ref being published: freed after the walk loaded it from the edge,
// before the publication and the edge re-validation. The inserter's own node
// (a pin that is not succs[0]) is TestOwnNodeRechecked's.
func pickPublished(g *sabotageGuard, slot int, r mem.Ref) mem.Ref {
	if ownNode(g, slot, r) {
		return 0
	}
	return r
}

func ownNode(g *sabotageGuard, slot int, r mem.Ref) bool {
	return slot == g.h.hpPin() && r != g.h.succs[0]
}

func pickOwnNode(g *sabotageGuard, slot int, r mem.Ref) mem.Ref {
	if !ownNode(g, slot, r) {
		return 0
	}
	return r
}

// (b) The walk's current left — published, validated and advanced onto
// earlier in this pass: the node a resolve-once walk carries longest. After
// the walk (the value slot) a GET never touches a predecessor again.
func pickLeft(g *sabotageGuard, slot int, r mem.Ref) mem.Ref {
	if slot == g.h.hpVal() {
		return 0
	}
	return g.left
}

// (c) preds[l] of an upper level this pass has finished: carried through the
// rest of the search and the level-0 link until level l's link CAS uses it.
func pickPred(l int) victim {
	return func(g *sabotageGuard, slot int, r mem.Ref) mem.Ref {
		if slot < g.h.hpScratch() && slot/2 >= l || g.h.preds[l] == g.h.s.head {
			return 0
		}
		return g.h.preds[l]
	}
}

const (
	sabKeys    = 1 << 12
	sabPresent = sabKeys / 2 // even keys are present, odd keys absent
	sabAbsent  = sabKeys/2 + 1
	sabTower   = 4 // height of the tower the inserting SET builds
)

var sabVal = make([]byte, 64) // too long to inline: each node holds its own (self)

// sabotage runs op on a fresh copy of the fixed list — the even keys of
// [0, 2^12), the same towers every time — with pick's victim freed on the
// k-th Protect, and returns what the operation panicked with.
func sabotage(t *testing.T, op func(h *Handle), key int64, k int, pick victim) (g *sabotageGuard, rec any) {
	s := New(Config{})
	d, err := reclaim.New("none", reclaim.Config{Workers: 1, HPs: HPsFor(s.Levels()), Free: s.FreeNode})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	lease, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	g = &sabotageGuard{Guard: lease, key: key, pick: pick}
	g.h = s.NewHandle(g, 1)
	for k := int64(0); k < sabKeys; k += 2 {
		g.h.PutBytes(k, sabVal)
	}
	// A cold handle and an empty node index: these rows are about the walk.
	// The fill left a finger on most keys and a word on many; the hint rows
	// are TestFingerDetection's.
	g.h.fingers = nil
	s.clearIndex()
	// The next tower drawn is sabTower high: case (c) needs upper levels.
	for g.h.rng = 1; ; g.h.rng++ {
		if probe := *g.h; probe.randomLevel() == sabTower {
			break
		}
	}
	g.calls, g.k = 0, k
	defer func() { rec = recover() }()
	op(g.h)
	return g, nil
}

// faulted accepts the pool's use-after-free report and, in a qsensedebug
// build, the splice assertion that fires one step ahead of it.
func faulted(rec any) bool {
	if s, ok := rec.(string); ok {
		return strings.HasPrefix(s, "skiplist: splice would install stale frozen successor")
	}
	v, ok := rec.(*mem.Violation)
	return ok && v.Op == "get"
}

// TestDetectionNotThinned: freeing a node under a running operation faults
// with *mem.Violation{Op: "get"} before the operation returns, whichever
// Protect call the free lands on and whichever of the nodes the walk is
// carrying it hits. It passes unmodified on the code that re-resolved every
// node at every use; it exists so that resolving once per hop never quietly
// becomes checking once per hop.
func TestDetectionNotThinned(t *testing.T) {
	ops := []struct {
		name string
		key  int64
		run  func(h *Handle)
	}{
		{"GET", sabPresent, func(h *Handle) { h.GetAppend(sabPresent, nil) }},
		{"SET(overwrite)", sabPresent, func(h *Handle) { h.PutBytes(sabPresent, sabVal) }},
		{"DEL", sabPresent, func(h *Handle) { h.Delete(sabPresent) }},
		{"SET(insert)", sabAbsent, func(h *Handle) { h.PutBytes(sabAbsent, sabVal) }},
	}
	type namedVictim struct {
		name string
		pick victim
	}
	everyOp := []namedVictim{{"published ref", pickPublished}, {"left", pickLeft}}
	insertOnly := everyOp
	for l := 1; l < sabTower; l++ {
		insertOnly = append(insertOnly, namedVictim{fmt.Sprintf("preds[%d]", l), pickPred(l)})
	}
	for _, op := range ops {
		// An unsabotaged run counts the Protect calls there are to land on.
		g, rec := sabotage(t, op.run, op.key, 0, nil)
		if rec != nil {
			t.Fatalf("%s: unsabotaged run panicked: %v", op.name, rec)
		}
		protects, victims := g.calls, everyOp
		if op.key == sabAbsent {
			victims = insertOnly
		}
		for _, v := range victims {
			fired := 0
			for k := 1; k <= protects; k++ {
				g, rec := sabotage(t, op.run, op.key, k, v.pick)
				if !g.fired {
					continue
				}
				fired++
				if !faulted(rec) {
					t.Errorf("%s, %s freed on Protect %d of %d: operation ended with %v, want *mem.Violation{Op: get}",
						op.name, v.name, k, protects, rec)
				}
			}
			if fired == 0 {
				t.Errorf("%s, %s: none of %d Protect calls had a victim", op.name, v.name, protects)
			}
			t.Logf("%s, %s: freed on %d of %d Protect calls", op.name, v.name, fired, protects)
		}
	}
}

// TestOwnNodeRechecked: the inserter's own node is pinned, not trusted — once
// linked a deleter may retire it, so every use after the pin re-checks like
// any other node's. (New with the carried slot: the code before it went on
// through a raw pointer and returned normally here.)
func TestOwnNodeRechecked(t *testing.T) {
	insert := func(h *Handle) { h.PutBytes(sabAbsent, sabVal) }
	g, _ := sabotage(t, insert, sabAbsent, 0, nil)
	// An uncontended insert's pin is its last Protect.
	g, rec := sabotage(t, insert, sabAbsent, g.calls, pickOwnNode)
	if !g.fired || !faulted(rec) {
		t.Fatalf("own node freed at its pin (fired=%v): insert ended with %v, want *mem.Violation{Op: get}", g.fired, rec)
	}
}

// TestSkipListLayout pins the rule stated on SkipList: the gauges every
// SET/DEL writes may not share a cache line with the words every search
// reads — the node index's pointer among them — wherever the struct lands.
func TestSkipListLayout(t *testing.T) {
	var s SkipList
	readEnd := max(
		unsafe.Offsetof(s.pool)+unsafe.Sizeof(s.pool),
		unsafe.Offsetof(s.levels)+unsafe.Sizeof(s.levels),
		unsafe.Offsetof(s.head)+unsafe.Sizeof(s.head),
		unsafe.Offsetof(s.tail)+unsafe.Sizeof(s.tail),
		unsafe.Offsetof(s.index)+unsafe.Sizeof(s.index),
	)
	for name, off := range map[string]uintptr{
		"vBytes":   unsafe.Offsetof(s.vBytes),
		"vSpilled": unsafe.Offsetof(s.vSpilled),
		"vRetires": unsafe.Offsetof(s.vRetires),
		"sRetires": unsafe.Offsetof(s.sRetires),
	} {
		if off < readEnd+64 {
			t.Errorf("SkipList.%s at offset %d: gauges must start >= 64 bytes after pool/levels/head/tail/index end (%d)", name, off, readEnd)
		}
	}
}

// TestFingerTableLayout pins what fingerSet's comment promises: the table is
// still 96 KiB, and it starts on a cache line, so every set — 96 bytes, at 0
// or 32 mod 64 — has its four keys on one line.
func TestFingerTableLayout(t *testing.T) {
	if size := unsafe.Sizeof(fingerSet{}) * (1 << fingerBits / fingerWays); size != 96<<10 {
		t.Errorf("finger table is %d bytes, want 96 KiB", size)
	}
	if unsafe.Offsetof(fingerSet{}.key) != 0 || unsafe.Sizeof(fingerSet{}.key) != 32 {
		t.Errorf("a set's keys are not its first 32 bytes")
	}
	_, d, hs := newSet(t, "none", 1, 0)
	defer d.Close()
	hs[0].Contains(1)
	if at := uintptr(unsafe.Pointer(&hs[0].fingers[0])); at%64 != 0 {
		t.Errorf("finger table at %#x, not on a cache line", at)
	}
}
