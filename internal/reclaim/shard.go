package reclaim

// Sharded domain core — per-shard slot pools, orphan lists and flush
// targets behind a façade with the single-pool method surface.
//
// One global slot pool, one orphan list and one rooster flush target were
// the domain core's remaining points of cross-CPU traffic: every Acquire
// CASed one freelist head, every Release with backlog one orphan head, and
// every occupancy estimate read one pair of shared counters. Config.Shards
// splits the core into S independent units — each shard owns its own
// elastic slotPool (freelist, growMu, occupancy index, parking suffix), its
// own orphanList, its own lease/quiesce counters and its own recFlusher —
// which is the per-thread-locality shape the measured SMR implementations
// share (smr-benchmark) and the batch-crossing design Hyaline argues for:
// the unit of cross-shard handoff is a whole stamped orphan batch, moved
// with one CAS, never a node.
//
// # Index encoding
//
// Global slot indices interleave across shards: global = local*S + shard,
// so shard = global mod S and local = global div S. Two properties fall
// out, and both serve the one outside consumer of slot indices, a
// SlotTable keyed by SlotIndex. First, the initial globals are exactly
// [0, Workers) and dense — global w < Workers maps to local w/S, which lies
// below shard (w mod S)'s initial size |{g < Workers : g ≡ w (mod S)}| —
// so a table's segment 0 covers precisely the slots a domain that never
// grows hands out, whatever the shard count. Second, every published global
// stays below HardMaxWorkers, so a table sized for the unsharded geometry
// needs no resizing. At S=1 the encoding is the identity and every façade
// method degenerates to the single pool's behaviour, byte-identical in
// Stats (regression-asserted by TestGoldenStatsShards1).
//
// # Shard selection
//
// lease picks a shard by power-of-two-choices over the pools' live
// occupancy, seeded by a stack-address hash — cheap per-goroutine affinity
// without any shared state — then steals from every sibling before growing
// any shard (capacity anywhere beats growth somewhere), and finally walks
// the shards growing until one yields a slot. Only when every shard is at
// its cap does Acquire fail.
//
// # Walk skipping
//
// Every reclamation walk iterates shards independently and skips a pool
// whose live count is zero — an idle or fully-parked shard costs nothing,
// not even its segment-0 state loads. Skipping is sound by the same edge
// occupancy.go's bitmap argument uses: a tenant's pool-live increment
// (markOccupied) precedes its every action in SC order, so a walk that
// loaded live==0 precedes everything that tenant ever published, which
// both the snapshot and the epoch-advance arguments already tolerate.

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"qsense/internal/mem"
	"qsense/internal/rooster"
)

// shardSize returns shard s's share of n slots under the interleaved
// encoding: the number of globals below n congruent to s mod S.
func shardSize(n, s, S int) int {
	sz := n / S
	if s < n%S {
		sz++
	}
	return sz
}

// shardedPool is the façade over S per-shard slotPools. All indices
// crossing its surface are global; the pools speak local indices only.
type shardedPool struct {
	pools []*slotPool
	tune  *tuner // shared across shards; retunes against summed capacity

	tuneMu sync.Mutex // serializes retuneShards across pools' growth locks

	// Waiter support for leaseWait, hoisted to the façade: a release on ANY
	// shard can satisfy a waiter, so the wake generation is domain-wide.
	wake    atomic.Pointer[chan struct{}]
	waiters atomic.Int32
}

// newShardedPool builds S pools splitting workers/hardMax by the
// interleaved encoding. onGrow publishes scheme state for one shard up to
// a LOCAL bound, before that shard's segment publishes (arena.go's
// ordering, per shard).
func newShardedPool(shards, workers, hardMax int, tune *tuner, onGrow func(shard, hi int)) *shardedPool {
	f := &shardedPool{pools: make([]*slotPool, shards), tune: tune}
	ch := make(chan struct{})
	f.wake.Store(&ch)
	for s := range f.pools {
		s := s
		var hook func(hi int)
		if onGrow != nil {
			hook = func(hi int) { onGrow(s, hi) }
		}
		f.pools[s] = newSlotPool(shardSize(workers, s, shards), shardSize(hardMax, s, shards), hook)
		f.pools[s].all = f
	}
	return f
}

func (f *shardedPool) shards() int { return len(f.pools) }

// pickShard is the power-of-two-choices shard selector. The hash seed is
// the address of a stack local: goroutine stacks are disjoint, so distinct
// goroutines spread across shards, while one goroutine's repeated leases
// mostly land on the same pair — per-goroutine affinity with zero shared
// state and no per-domain RMW. The two choices are always two shards: two
// slices of one hash coincide once in S, which at 2 shards left the
// occupancy comparison nothing to compare half the time.
func (f *shardedPool) pickShard() int {
	S := uint64(len(f.pools))
	if S == 1 {
		return 0
	}
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b))) * 0x9e3779b97f4a7c15
	s1 := int((h >> 40) % S)
	s2 := int((h >> 16) % S)
	if s2 == s1 {
		s2 = (s1 + 1) % int(S)
	}
	if f.pools[s2].live.Load() < f.pools[s1].live.Load() {
		return s2
	}
	return s1
}

// lease pops a slot: picked shard first, then every sibling
// (steal-before-grow), then growth shard by shard starting at the pick.
// Returns a GLOBAL index.
func (f *shardedPool) lease() (int, error) {
	S := len(f.pools)
	s := f.pickShard()
	for d := 0; d < S; d++ {
		sp := (s + d) % S
		if w := f.pools[sp].tryPop(); w >= 0 {
			f.pools[sp].countLease()
			return w*S + sp, nil
		}
	}
	for d := 0; d < S; d++ {
		sp := (s + d) % S
		p := f.pools[sp]
		for {
			if w := p.tryPop(); w >= 0 {
				p.countLease()
				return w*S + sp, nil
			}
			if !p.grow() {
				break
			}
		}
	}
	return -1, ErrNoSlots
}

// leaseWait is lease that parks while every shard is exhausted at its hard
// cap, woken by the next unlease on any shard, or fails with ctx.Err().
// The lost-wakeup argument of the single-pool leaseWait carries over with
// the wake generation hoisted domain-wide: the waiter loads the channel
// BEFORE its retry sweep over all pools, and every unlease pushes its slot
// BEFORE checking the waiter count.
func (f *shardedPool) leaseWait(ctx context.Context) (int, error) {
	if w, err := f.lease(); err == nil {
		return w, nil
	}
	f.waiters.Add(1)
	defer f.waiters.Add(-1)
	for {
		ch := *f.wake.Load()
		if w, err := f.lease(); err == nil {
			return w, nil
		}
		select {
		case <-ctx.Done():
			return -1, ctx.Err()
		case <-ch:
		}
	}
}

// wakeWaiters closes out the current wake generation so every parked
// leaseWait retries; called by any pool's unlease that observed waiters.
func (f *shardedPool) wakeWaiters() {
	ch := make(chan struct{})
	old := f.wake.Swap(&ch)
	close(*old)
}

// unlease runs the release protocol for GLOBAL index i on its shard.
func (f *shardedPool) unlease(i int, drain func()) bool {
	S := len(f.pools)
	return f.pools[i%S].unlease(i/S, drain)
}

// quiesceAt counts one quiescent state on GLOBAL slot id's shard, keeping
// the hot quiescent path free of cross-shard RMWs.
func (f *shardedPool) quiesceAt(id int) {
	f.pools[id%len(f.pools)].quiesce.Add(1)
}

// walkOccupied calls visit with the GLOBAL index of every occupied slot,
// shard by shard (ascending local order within a shard), and returns the
// number of slots visited. Pools with zero live occupancy are skipped
// outright — see the file comment for why that is sound.
func (f *shardedPool) walkOccupied(visit func(i int) bool) int {
	S := len(f.pools)
	n := 0
	for s, p := range f.pools {
		if p.live.Load() == 0 {
			continue
		}
		stopped := false
		n += p.walkOccupied(func(local int) bool {
			if !visit(local*S + s) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			break
		}
	}
	return n
}

// retuneShards re-derives the shared thresholds against the domain-wide
// unparked capacity (N = Σ unparked slots across shards). Called from any
// pool's capacity transition under that pool's growMu; tuneMu serializes
// concurrent transitions on different shards.
func (f *shardedPool) retuneShards() {
	if f.tune == nil {
		return
	}
	f.tuneMu.Lock()
	defer f.tuneMu.Unlock()
	var n, high int64
	for _, p := range f.pools {
		hi := int64(p.high.Load())
		high += hi
		n += hi - p.parkedSlots.Load()
	}
	f.tune.retune(n, high)
}

// fillArena aggregates the capacity subsystem into a Stats snapshot:
// sums across shards for the pre-sharding fields (byte-identical at S=1)
// plus the shard layout and the live-occupancy imbalance.
func (f *shardedPool) fillArena(s *Stats) {
	s.Shards = len(f.pools)
	minLive, maxLive := int64(1<<62), int64(-1)
	for _, p := range f.pools {
		s.ArenaSize += int(p.high.Load())
		s.HighWaterWorkers += int(p.highWater.Load())
		s.ArenaGrowths += p.grows.Load()
		s.ParkedSlots += int(p.parkedSlots.Load())
		s.SegmentParks += p.parks.Load()
		s.SegmentUnparks += p.unparks.Load()
		s.AcquiredHandles += p.acquired.Load()
		s.ReleasedHandles += p.released.Load()
		s.QuiescentStates += p.quiesce.Load()
		l := p.live.Load()
		minLive = min(minLive, l)
		maxLive = max(maxLive, l)
	}
	if len(f.pools) > 1 {
		s.ShardImbalance = int(maxLive - minLive)
	}
	if f.tune != nil {
		s.EffectiveR = int(f.tune.r.Load())
		s.EffectiveC = int(f.tune.c.Load())
	}
}

// shardedArena is a scheme's per-slot table split across shards: shard s
// holds the entries of every global ≡ s (mod S), at local index global/S.
type shardedArena[T any] struct {
	shards []*arena[T]
}

// newShardedArena builds S arenas; mk receives GLOBAL indices, so scheme
// state (guard ids, record lookups) keeps speaking globals.
func newShardedArena[T any](S, workers, hardMax int, mk func(global int) T) *shardedArena[T] {
	a := &shardedArena[T]{shards: make([]*arena[T], S)}
	for s := range a.shards {
		s := s
		a.shards[s] = newArena(shardSize(workers, s, S), shardSize(hardMax, s, S), func(local int) T {
			return mk(local*S + s)
		})
	}
	return a
}

// at returns GLOBAL slot i's entry.
func (a *shardedArena[T]) at(i int) T {
	if len(a.shards) == 1 {
		return a.shards[0].at(i)
	}
	S := len(a.shards)
	return a.shards[i%S].at(i / S)
}

// growShard publishes shard s's entries up to LOCAL bound hi (the pool
// growth hook's shard-local geometry).
func (a *shardedArena[T]) growShard(s, hi int) { a.shards[s].grow(hi) }

// forEach visits every published entry of every shard — the Close loops'
// iteration (globals are not dense across shards after uneven growth).
func (a *shardedArena[T]) forEach(fn func(T)) {
	for _, sh := range a.shards {
		for i, n := 0, sh.len(); i < n; i++ {
			fn(sh.at(i))
		}
	}
}

// shardedOrphans is the per-shard orphan limbo: a Release hands its whole
// stranded backlog to the releasing guard's OWN shard's list in one CAS
// (the Hyaline-style batched handoff — the batch, not the node, is the
// unit that crosses threads), and every adoption pass sweeps all lists.
type shardedOrphans struct {
	lists []orphanList
}

func (o *shardedOrphans) init(S int) { o.lists = make([]orphanList, S) }

// at returns GLOBAL slot id's shard list — the Release handoff target.
func (o *shardedOrphans) at(id int) *orphanList {
	return &o.lists[id%len(o.lists)]
}

// empty reports whether every shard's list is empty: one pointer load per
// shard, still the hot-path gate.
func (o *shardedOrphans) empty() bool {
	for i := range o.lists {
		if !o.lists[i].empty() {
			return false
		}
	}
	return true
}

// adoptEpoch sweeps every shard's list for epoch-evidence adoption.
func (o *shardedOrphans) adoptEpoch(global uint64, free func(mem.Ref), cnt *counters) {
	for i := range o.lists {
		o.lists[i].adoptEpoch(global, free, cnt)
	}
}

// adoptClaim sweeps every shard's list for RC claim adoption.
func (o *shardedOrphans) adoptClaim(table *countTable, free func(mem.Ref), cnt *counters) {
	for i := range o.lists {
		o.lists[i].adoptClaim(table, free, cnt)
	}
}

// detachAll detaches every shard's chain (index = shard). Callers pass the
// result to adoptDetachedAll after taking ONE snapshot; survivors go back
// to their own shard's list, preserving shard locality of the backlog.
func (o *shardedOrphans) detachAll() []*orphanBatch {
	var batches []*orphanBatch
	for i := range o.lists {
		if b := o.lists[i].detach(); b != nil {
			if batches == nil {
				batches = make([]*orphanBatch, len(o.lists))
			}
			batches[i] = b
		}
	}
	return batches
}

// adoptDetachedAll runs the deferred-scan adoption over chains detached by
// detachAll, against one shared snapshot, pushing each chain's survivors
// back to its own shard's list.
func (o *shardedOrphans) adoptDetachedAll(batches []*orphanBatch, snap hpSnapshot, mgr *rooster.Manager, tick uint64, cfg Config, cnt *counters) {
	for i, b := range batches {
		if b != nil {
			o.lists[i].adoptDetached(b, snap, mgr, tick, cfg, cnt)
		}
	}
}

// adoptIntervalAll runs ibr's interval adoption over chains detached by
// detachAll, against one reservation snapshot collected after the detach,
// pushing each chain's survivors back to its own shard's list.
func (o *shardedOrphans) adoptIntervalAll(batches []*orphanBatch, res []eraInterval, free func(mem.Ref), cnt *counters) {
	for i, b := range batches {
		if b != nil {
			o.lists[i].adoptInterval(b, res, free, cnt)
		}
	}
}

// drain frees everything on every shard's list — the Close path.
func (o *shardedOrphans) drain(free func(mem.Ref), cnt *counters) {
	for i := range o.lists {
		o.lists[i].drain(free, cnt)
	}
}

// adoptHook returns the rooster-pass adoption hook (Cadence, QSense): tick
// capture, then detach of EVERY shard's chain, then one snapshot across all
// shards — the same safety-critical ordering orphanList documented, with
// the detach now a per-shard sweep.
func (o *shardedOrphans) adoptHook(mgr *rooster.Manager, f *shardedPool, recs *shardedArena[*hprec], cfg Config, cnt *counters) func() {
	var buf []uint64
	return func() {
		if o.empty() {
			return
		}
		tick := mgr.Tick()
		batches := o.detachAll()
		snap, visited := snapshotShared(f, recs, buf)
		buf = snap.vals
		cnt.scanned.Add(uint64(visited))
		o.adoptDetachedAll(batches, snap, mgr, tick, cfg, cnt)
	}
}

// snapshotShared collects the non-nil shared HPs of all occupied, active
// records across every shard (hprecord.go: why an inactive record may be
// skipped whatever its slots hold), skipping pools with zero live occupancy
// (see the file comment for the soundness edge), and reports how many
// records it visited. One snapshot serves all shards: Michael's argument needs every
// scanned node retired before the snapshot and every relevant protection
// published (and flushed) before the unlink — properties that do not care
// which shard the protector's slot lives on.
func snapshotShared(f *shardedPool, recs *shardedArena[*hprec], buf []uint64) (hpSnapshot, int) {
	vals := buf[:0]
	visited := 0
	for s, p := range f.pools {
		if p.live.Load() == 0 {
			continue
		}
		ra := recs.shards[s]
		visited += p.walkOccupied(func(local int) bool {
			r := ra.at(local)
			if !r.sharedActive.Load() {
				return true
			}
			for i := range r.shared {
				if v := r.shared[i].v.Load(); v != 0 {
					vals = append(vals, v)
				}
			}
			return true
		})
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return hpSnapshot{vals: vals}, visited
}
