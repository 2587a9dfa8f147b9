package reclaim

// Elastic arena geometry — the publish-once segment directory behind every
// per-slot table in a domain.
//
// The paper freezes the worker set N at construction; PR 1's leasing
// relaxed *who* holds a slot but kept the arena fixed, so a
// goroutine-per-request server still died on ErrNoSlots sizing guesses.
// This file removes the fixed-N assumption the same way mem.Pool removes
// the fixed-heap assumption: capacity lives in segments behind a directory
// whose entries are published once and never move. Segment 0 holds the
// initial (soft) Config.Workers slots; each growth appends one segment that
// doubles total capacity, clamped to the hard cap (Config.HardMaxWorkers,
// or MaxArenaSlots when elastic). Slot indices are dense and stable, so
// everything keyed by slot index — guards, hazard records, the client
// cell where a container keeps the slot's structure handle — survives growth
// untouched.
//
// Concurrency contract. Growth publishes a segment pointer with an atomic
// store and only then advances the published-slot count (`high`). Readers
// load `high` first and index below it, so a bound loaded from high is
// always covered by published segments. The count is monotone, which is
// what makes scans and epoch checks over a growing arena exactly as sound
// as over a fixed one: a slot can only be leased after its segment and the
// covering high were published (the freelist push that hands it out comes
// later in the same growth critical section), so — Go atomics being
// sequentially consistent — any protection or epoch announcement visible
// to a scan lives below the high that scan loaded. A slot published after
// the scan's high load can hold only protections published after that
// load, which Michael's retire-before-snapshot argument (and the epoch
// schemes' join-quiescent argument) already tolerates.

import (
	"math/bits"
	"sync/atomic"
)

// MaxArenaSlots is the library ceiling for elastic arena growth, used when
// no HardMaxWorkers cap is configured. It bounds the segment directory; at
// the default doubling schedule a domain reaches it in ~20 growths.
const MaxArenaSlots = 1 << 20

// segOf maps slot index i to its (segment, in-segment offset) for a
// directory whose segment 0 holds init slots and whose segment s >= 1
// holds init<<(s-1) — so total capacity doubles with every segment.
func segOf(i, init uint32) (int, uint32) {
	if i < init {
		return 0, i
	}
	s := bits.Len32(i / init)
	return s, i - init<<(s-1)
}

// segBounds returns segment s's slot range [lo, hi), clamped to cap.
func segBounds(s int, init, cap uint32) (uint32, uint32) {
	if s == 0 {
		return 0, min(init, cap)
	}
	return init << (s - 1), min(init<<s, cap)
}

// numSegs returns how many segments cover cap slots at initial size init.
func numSegs(init, cap uint32) int {
	n := 1
	for cov := uint64(init); cov < uint64(cap); cov <<= 1 {
		n++
	}
	return n
}

// arena is a scheme's segmented per-slot table (guards, hazard records):
// entries are built by mk at publication and never move. at/len are
// lock-free and safe concurrently with grow; grow calls are serialized by
// the slot pool's growth lock.
type arena[T any] struct {
	init uint32
	cap  uint32
	high atomic.Uint32 // published slot count; monotone
	mk   func(i int) T
	seg0 []T // segment 0, immutable after construction: the no-growth fast path
	segs []atomic.Pointer[[]T]
}

// newArena builds the directory and publishes segment 0 (the initial soft
// size), so slots [0, init) exist from construction exactly as in the
// fixed-arena model.
func newArena[T any](init, hardMax int, mk func(i int) T) *arena[T] {
	a := &arena[T]{
		init: uint32(init),
		cap:  uint32(hardMax),
		mk:   mk,
		segs: make([]atomic.Pointer[[]T], numSegs(uint32(init), uint32(hardMax))),
	}
	a.grow(init)
	a.seg0 = *a.segs[0].Load()
	return a
}

// at returns slot i's entry. i must lie below a previously loaded len()
// (or have been handed out by the slot pool, which publishes later).
// Indices in segment 0 — every index of a domain that never grew — take
// the direct path, so the elastic directory costs nothing until growth
// actually happens.
func (a *arena[T]) at(i int) T {
	if u := uint32(i); u < a.init {
		return a.seg0[u]
	}
	s, off := segOf(uint32(i), a.init)
	return (*a.segs[s].Load())[off]
}

// len returns the published slot count — the iteration bound for scans,
// epoch checks and presence sweeps. See the file comment for why a bound
// loaded here is sound against concurrent growth.
func (a *arena[T]) len() int { return int(a.high.Load()) }

// grow publishes whole segments until at least n slots exist (no-op if
// they already do). Callers serialize growth; n is always a segment
// boundary because the slot pool grows segment-at-a-time.
func (a *arena[T]) grow(n int) {
	hi := a.high.Load()
	for int(hi) < n {
		s, _ := segOf(hi, a.init)
		lo, end := segBounds(s, a.init, a.cap)
		seg := make([]T, end-lo)
		for j := range seg {
			seg[j] = a.mk(int(lo) + j)
		}
		a.segs[s].Store(&seg)
		a.high.Store(end)
		hi = end
	}
}
