package reclaim

import (
	"sync"
	"sync/atomic"

	"qsense/internal/mem"
)

// RC is lock-free reference counting (paper references [9], [12], [30];
// §8 "Reference counting") — the historical baseline the paper dismisses
// as "requiring expensive atomic operations on every access", implemented
// so the benchmarks can show exactly that.
//
// Every Protect is an atomic acquire on the node's counter and an atomic
// release of the slot's previous occupant: two RMWs per node visited,
// against HP's store+fence and Cadence's bare store. Reclamation frees a
// retired node once its count is zero, claimed with a CAS so a concurrent
// acquire and the final free cannot race.
//
// Counters live in a side table keyed by the node's slot index and
// qualified by its allocation generation: one word packs (gen<<32|count).
// The generation qualification is what makes counting safe against slot
// reuse — an acquire against a stale generation fails (the node is gone;
// the caller's link re-validation will fail and retry, per §3.2's
// methodology), and a release after the slot moved on is a detectable
// no-op instead of corrupting the new tenant's count.
//
// Safety sketch: a node is freed only by the claim CAS (gen,0)->(gen+1,0).
// A reader that acquired (count>0) before the claim blocks it. A reader
// that acquires after the node was retired can never pass its link
// validation (the node was unlinked before retire, and generation tagging
// defeats ABA on the link word), so it releases without dereferencing.
type RC struct {
	domainCore
	table  countTable
	guards *arena[*rcGuard]
}

type rcGuard struct {
	guardCore
	d          *RC
	held       []mem.Ref // held[i] = ref currently counted for HP slot i
	rl         []retired
	sinceSweep int
}

// NewRC builds a reference counting domain. Config.HPs bounds the number
// of simultaneously counted references per worker, exactly like hazard
// pointer slots. RC's reclamation is per-node (count claims), so it has no
// slot-proportional walks to convert; only its sweep cadence R re-tunes
// with occupancy. Counts are per-node, not per-worker, so pinning needs no
// scheme work.
func NewRC(cfg Config) (*RC, error) {
	d := &RC{}
	if err := d.init(nameRC, cfg, true); err != nil {
		return nil, err
	}
	d.tune = newTuner(d.cfg, &d.cnt)
	d.guards = openGuards(&d.domainCore, nil, func(int) *rcGuard {
		return &rcGuard{d: d, held: make([]mem.Ref, d.cfg.HPs)}
	})
	return d, nil
}

// join: a fresh RC guard holds no counted references; nothing to join
// beyond refreshing the cached sweep threshold.
func (g *rcGuard) join() { g.tc.refresh(g.d.tune) }

// drain: drop every counted reference, sweep the retire list so everything
// unheld frees now and move the still-held remainder to the orphan list —
// any worker's later sweep claims each node the moment its holders release
// it.
func (g *rcGuard) drain() {
	g.ClearHPs()
	if len(g.rl) > 0 {
		g.sweep()
	}
	if len(g.rl) > 0 {
		g.d.orphans.add(g.rl, 0, &g.d.cnt)
		g.rl = nil
	}
}

// closeFree ignores counts: every worker has stopped.
func (g *rcGuard) closeFree() {
	g.d.cnt.tallyFree(&g.tally, freeAll(g.d.cfg.Free, g.rl))
	g.rl = g.rl[:0]
}

func (g *rcGuard) Begin() {}

// Protect acquires a counted reference on r and releases the slot's
// previous occupant — two atomic RMWs, the scheme's defining cost. If r's
// generation is already gone the slot is left empty; the caller's link
// validation is then guaranteed to fail.
func (g *rcGuard) Protect(i int, r mem.Ref) {
	r = r.Untagged()
	old := g.held[i]
	if old == r {
		return
	}
	if !r.IsNil() && !g.d.table.acquire(r) {
		r = 0
	}
	g.held[i] = r
	if !old.IsNil() {
		g.d.table.release(old)
	}
	// Fault point: stalled with the count held, the reader pins exactly
	// the nodes its held slots have acquired.
	g.d.cfg.fire(FaultProtect, g.id)
}

// ClearHPs releases every counted reference.
func (g *rcGuard) ClearHPs() {
	for i, r := range g.held {
		if !r.IsNil() {
			g.d.table.release(r)
			g.held[i] = 0
		}
	}
}

func (g *rcGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("reclaim: retire of nil Ref")
	}
	g.rl = append(g.rl, retired{ref: r.Untagged()})
	g.d.cnt.tallyRetire(&g.tally, g.d.cfg.MemoryLimit)
	g.sinceSweep++
	if g.sinceSweep >= g.tc.r {
		g.sinceSweep = 0
		g.sweep()
	}
}

// sweep frees the retired nodes whose count the claim CAS can take to the
// next generation (i.e. nobody holds them); the rest stay for later. The
// same pass adopts orphaned nodes whose holders have since released them.
func (g *rcGuard) sweep() {
	d := g.d
	d.cnt.scans.Add(1)
	canFree := func(n retired) bool { return d.table.tryClaim(n.ref) }
	var freed int
	g.rl, freed = sweep(d.cfg.Free, g.rl, canFree)
	d.cnt.tallyFree(&g.tally, freed)
	d.orphans.adopt(d.orphans.detach(), d.cfg.Free, &d.cnt, func(_ uint64, n retired) bool { return canFree(n) })
	d.cnt.flushTally(&g.tally, d.cfg.MemoryLimit)
	g.tc.refresh(d.tune)
}

// countTable maps slot indexes to (generation<<32 | count) words, growing
// in published-once segments like mem.Pool's slab directory.
type countTable struct {
	segs   [countSegs]atomic.Pointer[countSeg]
	growMu sync.Mutex
}

const (
	countSegShift = 13
	countSegSize  = 1 << countSegShift // counters per segment
	countSegs     = 1 << 16            // covers 2^29 slots
)

type countSeg [countSegSize]atomic.Uint64

func (t *countTable) slot(idx uint32) *atomic.Uint64 {
	si := idx >> countSegShift
	seg := t.segs[si].Load()
	if seg == nil {
		t.growMu.Lock()
		if seg = t.segs[si].Load(); seg == nil {
			seg = new(countSeg)
			t.segs[si].Store(seg)
		}
		t.growMu.Unlock()
	}
	return &seg[idx&(countSegSize-1)]
}

func packCount(gen uint32, count uint32) uint64 { return uint64(gen)<<32 | uint64(count) }

// Counter words move through generations monotonically: a newer generation
// may override an older word, never the reverse. This is the invariant
// that makes the table safe against slot reuse — without it, a stale
// reader could park its dead generation's count in the word and block a
// LIVE node's acquire, sending a current reader past validation without
// protection. (Counts under an older generation protect nothing: that
// tenant is gone — its free either claimed the word past its generation,
// or it was a never-linked node freed directly, which no reader could
// have reached.) Generation wraparound (30-bit, one step per slot
// transition) is ignored, like everywhere else in the substrate.

// acquire increments r's count. It fails (returns false) when the counter
// word has moved past r's generation — r's node is gone, and the caller's
// link validation is guaranteed to fail too.
func (t *countTable) acquire(r mem.Ref) bool {
	c := t.slot(r.Index())
	gen := r.Gen()
	for {
		w := c.Load()
		wg := uint32(w >> 32)
		switch {
		case wg == gen:
			if c.CompareAndSwap(w, w+1) {
				return true
			}
		case wg < gen:
			// Older word (possibly with a dead generation's count):
			// override with ours.
			if c.CompareAndSwap(w, packCount(gen, 1)) {
				return true
			}
		default:
			return false // the slot moved on; r is stale
		}
	}
}

// release decrements r's count. A generation mismatch means the count was
// already claimed or superseded; releasing is then a no-op.
func (t *countTable) release(r mem.Ref) {
	c := t.slot(r.Index())
	gen := r.Gen()
	for {
		w := c.Load()
		if uint32(w>>32) != gen || uint32(w) == 0 {
			return
		}
		if c.CompareAndSwap(w, w-1) {
			return
		}
	}
}

// tryClaim atomically retires generation r: it succeeds only when r holds
// no counts, bumping the word past r's generation so late acquires fail.
func (t *countTable) tryClaim(r mem.Ref) bool {
	c := t.slot(r.Index())
	gen := r.Gen()
	for {
		w := c.Load()
		wg := uint32(w >> 32)
		if wg > gen {
			// The word moved past r without our claim — cannot
			// happen while r is retired-but-unfreed (new tenants
			// need our free first). Refuse rather than double-free.
			return false
		}
		if wg == gen && uint32(w) != 0 {
			return false // held by readers
		}
		// Either our generation with count 0, or an older word (r was
		// never acquired; any old count belongs to a dead tenant).
		if c.CompareAndSwap(w, packCount(gen+1, 0)) {
			return true
		}
	}
}
