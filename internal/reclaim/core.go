package reclaim

// The lease-lifecycle kernel. Every scheme's domain embeds one domainCore,
// which implements the whole Domain interface once; a scheme file keeps its
// constructor, the four policy hooks below and the paper's three calls
// (Begin/Protect/Retire, plus ClearHPs).
//
// Every free goes through freeAll or sweep (the end of this file): a scheme
// states its free rule once, as the canFree it hands sweep, and the same
// rule judges its own backlog and the orphans it adopts.

import (
	"context"
	"sync/atomic"

	"qsense/internal/mem"
	"qsense/internal/rooster"
)

// policy is what the kernel asks of a scheme's guard. The hooks run on the
// lease path only (Acquire, Release, Close), never per operation.
type policy interface {
	Guard
	core() *guardCore
	// join is what a fresh tenant does before its first operation: reset
	// hazard state, activate membership, declare the lease a quiescent
	// state, refresh cached thresholds — whatever the scheme's protocol
	// needs for a recycled slot to resume cleanly.
	join()
	// drain runs under the slot's releasing state: drop protections, free
	// what is provably safe, strand the rest on the orphan list. The
	// kernel flushes the tally afterwards.
	drain()
	// closeFree frees the guard's whole backlog unconditionally (Close:
	// every worker has stopped). The kernel drains the tally afterwards.
	closeFree()
}

// guardCore is the kernel's half of a guard; every scheme's guard embeds it
// FIRST, directly before its concrete domain back-pointer and hazard
// record, so that id (last here) shares their cache line — what Protect
// touches — and the retire ledger its own, as before the kernel existed.
type guardCore struct {
	tally tally
	tc    tunerCache  // stays at the configured R/C on tuner-less schemes
	dom   *domainCore // owning kernel: Release's foreign-guard check
	id    int
}

func (g *guardCore) core() *guardCore { return g }

// slotCore is the kernel's table entry for one slot: the guard's kernel
// half plus the guard itself as the kernel calls it (pol) and as Acquire
// hands it out (pub) — converted once at construction, so the lease path
// converts nothing — and the slot's client cell (SlotClient), which sits
// here rather than on guardCore so Protect's cache line stays as it was.
type slotCore struct {
	*guardCore
	pol    policy
	pub    Guard
	client any
}

// domainCore owns everything a domain has whatever its scheme: the name,
// the defaulted Config, counters, the optional threshold tuner and rooster,
// the slot pool and orphan list, and the guards' kernel halves.
type domainCore struct {
	name    string
	cfg     Config
	cnt     counters
	tune    *tuner           // nil: no tunable threshold (none, qsbr, hyaline)
	mgr     *rooster.Manager // nil: no rooster (all but cadence, qsense)
	slots   *slotPool
	orphans orphanList
	cores   *arena[*slotCore]
	// extraStats, when set, adds the scheme's own Stats fields.
	extraStats func(*Stats)
}

// init validates and defaults cfg. The scheme then installs its tuner and
// rooster if it has them, builds its arenas, and calls openGuards.
func (d *domainCore) init(name string, cfg Config, needFree bool) error {
	if err := cfg.Validate(needFree); err != nil {
		return err
	}
	d.name = name
	d.cfg = cfg.withDefaults()
	return nil
}

// openGuards builds the scheme's concretely typed guard arena (mk fills the
// scheme's half of a guard), the kernel's table of the guards' kernel
// halves (filled here), and the slot pool over both.
// growFirst, when non-nil, publishes state the guards index into (hazard
// records) before the guards of a grown segment are built.
func openGuards[G policy](d *domainCore, growFirst func(hi int), mk func(i int) G) *arena[G] {
	guards := newArena(d.cfg.Workers, d.cfg.HardMaxWorkers, mk)
	d.cores = newArena(d.cfg.Workers, d.cfg.HardMaxWorkers, func(i int) *slotCore {
		g := guards.at(i)
		c := g.core()
		*c = guardCore{tc: tunerCache{r: d.cfg.R, c: d.cfg.C}, dom: d, id: i}
		return &slotCore{guardCore: c, pol: g, pub: g}
	})
	d.slots = newSlotPool(d.cfg.Workers, d.cfg.HardMaxWorkers, d.tune, func(hi int) {
		if growFirst != nil {
			growFirst(hi)
		}
		guards.grow(hi)
		d.cores.grow(hi)
	})
	return guards
}

// openHazardGuards is openGuards for the schemes that publish hazard
// pointers (hp, cadence, qsense): a record arena the guards index into,
// and — with a rooster — one occupancy-walking flush target plus the orphan
// adoption hook. Growth publishes records before their slots can lease and
// the target walks exactly the occupied slots, so rooster registration is a
// construction-time affair and flush passes cost O(live).
func openHazardGuards[G policy](d *domainCore, mk func(rec *hprec) G) (*arena[*hprec], *arena[G]) {
	recs := newArena(d.cfg.Workers, d.cfg.HardMaxWorkers, func(int) *hprec {
		return newHPRec(d.cfg.HPs)
	})
	guards := openGuards(d, recs.grow, func(i int) G { return mk(recs.at(i)) })
	if d.mgr != nil {
		d.mgr.Register(&recFlusher{p: d.slots, recs: recs, cnt: &d.cnt})
		d.mgr.AddHook(1, d.adoptHook(recs))
	}
	return recs, guards
}

// startRooster starts the rooster's timer unless tests drive it manually.
// Last step of a constructor: hooks may run from here on.
func (d *domainCore) startRooster() {
	if !d.cfg.ManualRooster {
		d.mgr.Start()
	}
}

// Acquire implements Domain: lease a slot and run the scheme's join step.
func (d *domainCore) Acquire() (Guard, error) {
	return d.joined(d.slots.lease())
}

// AcquireWait implements Domain: Acquire that parks until a slot frees or
// ctx is done.
func (d *domainCore) AcquireWait(ctx context.Context) (Guard, error) {
	return d.joined(d.slots.leaseWait(ctx))
}

func (d *domainCore) joined(w int, err error) (Guard, error) {
	if err != nil {
		return nil, err
	}
	c := d.cores.at(w)
	c.pol.join()
	return c.pub, nil
}

// errForeignGuard is the Release misuse panic.
const errForeignGuard = "reclaim: Release of a guard from another domain"

// Release implements Domain: run the scheme's drain while the slot is in
// the releasing state, flush the guard's tally and recycle the slot. An
// already-released guard is refused by unlease (no-op).
func (d *domainCore) Release(gd Guard) {
	g, ok := gd.(policy)
	if !ok || g.core().dom != d {
		panic(errForeignGuard)
	}
	c := g.core()
	d.slots.unlease(c.id, func() {
		g.drain()
		d.cnt.releaseTally(&c.tally, d.cfg.MemoryLimit)
	})
}

// Name implements Domain.
func (d *domainCore) Name() string { return d.name }

// Failed implements Domain. Robust schemes never trip it (QSense: Property
// 4, given a legal C); the leaky baseline is the first to.
func (d *domainCore) Failed() bool { return d.cnt.failed.Load() }

// Stats implements Domain.
func (d *domainCore) Stats() Stats {
	s := Stats{Scheme: d.name}
	d.cnt.fill(&s, d.slots, d.cores)
	d.slots.fillArena(&s)
	if d.mgr != nil {
		s.RoosterPasses = d.mgr.Tick()
	}
	if d.extraStats != nil {
		d.extraStats(&s)
	}
	return s
}

// Close implements Domain: stop the rooster, free every guard's backlog and
// drain the orphan lists. Call only once all workers have stopped — every
// grace period has then trivially elapsed.
func (d *domainCore) Close() {
	if d.mgr != nil {
		d.mgr.Stop()
	}
	for i, n := 0, d.cores.len(); i < n; i++ {
		c := d.cores.at(i)
		c.pol.closeFree()
		d.cnt.drainTally(&c.tally)
	}
	d.orphans.drain(d.cfg.Free, &d.cnt)
}

// counters carries the stat counters shared by all schemes. Lease and
// quiescent-state counts are NOT here: they accrue on the slot pool
// (slots.go), next to the state they count.
type counters struct {
	retired   atomic.Uint64
	freed     atomic.Uint64
	scans     atomic.Uint64
	scanned   atomic.Uint64 // per-slot records visited by reclamation walks
	epochs    atomic.Uint64
	toFall    atomic.Uint64
	toFast    atomic.Uint64
	evictions atomic.Uint64
	rejoins   atomic.Uint64
	orphaned  atomic.Uint64
	adopted   atomic.Uint64
	retunesR  atomic.Uint64
	retunesC  atomic.Uint64
	failed    atomic.Bool
}

// pending loads freed BEFORE retired: freed never exceeds retired in real
// time and retired only grows, so this order keeps the difference >= 0
// even when the loads are arbitrarily far apart (a reader descheduled
// between them would otherwise see frees of retires it never counted).
func (c *counters) pending() int64 {
	freed := c.freed.Load()
	return int64(c.retired.Load()) - int64(freed)
}

// tally is a guard's private retire/free ledger — the amortization that
// keeps Retire from paying one shared RMW per node. retires/frees are
// owner-only plain fields; res mirrors the unflushed retire count in a
// single-writer atomic that Stats snapshots sum (so Stats.Retired stays
// exact even between flushes, without Retire touching shared cache lines).
//
// Flush discipline: retires flush to the shared counters every
// tallyFlushEvery events and at every reclamation pass boundary (scan,
// sweep, quiescent state, epoch-bucket free), on Release and on Close.
// Frees only ever accrue INSIDE a pass and are flushed before the pass
// returns, so between passes the free residue is always zero and the
// shared freed counter is exact. The only observable staleness is the
// MemoryLimit check: it runs against the shared counters at flush time, so
// breach detection can lag by up to tallyFlushEvery-1 retires per live
// guard (documented on Config.MemoryLimit).
type tally struct {
	retires int
	frees   int
	scanned int          // walk visits; rides along with the next flush
	res     atomic.Int64 // unflushed retires; single-writer, read by Stats
}

// tallyFlushEvery bounds how many retires a guard batches before flushing
// to the shared counters (and re-checking MemoryLimit).
const tallyFlushEvery = 32

// tallyRetire counts one Retire in the guard's private ledger, flushing to
// the shared counters every tallyFlushEvery events. With a MemoryLimit set
// the breach check still runs per retire — against the shared counters plus
// this guard's own unflushed count, so only OTHER guards' residues (at most
// tallyFlushEvery-1 each) can delay detection — but it costs loads, not the
// RMW the pre-tally noteRetire paid; without a limit the hot path touches
// no shared counter at all.
func (c *counters) tallyRetire(t *tally, limit int) {
	t.retires++
	t.res.Store(int64(t.retires))
	if limit > 0 && c.pending()+int64(t.retires) > int64(limit) {
		c.failed.Store(true)
	}
	if t.retires >= tallyFlushEvery || t.frees > 0 {
		c.flushTally(t, limit)
	}
}

// tallyFree counts n frees in the guard's private ledger. The caller's
// reclamation pass MUST flush before returning control to the application
// (every pass boundary calls flushTally), so shared freed stays exact at
// pass boundaries.
func (c *counters) tallyFree(t *tally, n int) {
	t.frees += n
}

// tallyScanned counts walk visits by a guard-driven pass (HP snapshot
// collection, epoch-advance checks). The count rides along with the next
// retire/free flush — or flushes on its own past a coarse threshold — so a
// pure lease-churn quiescent (nothing retired, one slot visited) pays no
// shared RMW for its walk. ScannedRecords is a diagnostic: opportunistic
// flushing trades per-snapshot exactness (it may lag by a guard's small
// residue) for a clean hot path; Close drains the residues, so post-Close
// reads are exact. Domain-level walks (rooster flushes, presence sweeps)
// add to the shared counter directly — they are already per-pass.
func (c *counters) tallyScanned(t *tally, n int) {
	t.scanned += n
	if t.scanned >= 4096 {
		c.scanned.Add(uint64(t.scanned))
		t.scanned = 0
	}
}

// flushTally publishes the guard's ledger to the shared counters — retires
// first, so shared freed can never overtake shared retired — and re-checks
// the memory limit against the flushed totals. A ledger with nothing
// retired or freed returns immediately (walk-visit residue waits for the
// next real flush).
func (c *counters) flushTally(t *tally, limit int) {
	if t.retires == 0 && t.frees == 0 {
		return
	}
	if t.retires > 0 {
		c.retired.Add(uint64(t.retires))
		t.retires = 0
		t.res.Store(0)
		if limit > 0 && c.pending() > int64(limit) {
			c.failed.Store(true)
		}
	}
	if t.frees > 0 {
		c.freed.Add(uint64(t.frees))
		t.frees = 0
	}
	if t.scanned > 0 {
		c.scanned.Add(uint64(t.scanned))
		t.scanned = 0
	}
}

// releaseTally is the slot-release flush: everything except a TINY
// walk-visit residue, which stays on the guard's ledger and rides along
// with a future tenant's flush — so a lease-churn release pays no shared
// RMW for the one or two slots its own quiescent/advance walk visited,
// while a burst drain's large per-release walk counts (hundreds of visits)
// are published before the slot vanishes from the index.
func (c *counters) releaseTally(t *tally, limit int) {
	c.flushTally(t, limit)
	if t.scanned >= 64 {
		c.scanned.Add(uint64(t.scanned))
		t.scanned = 0
	}
}

// drainTally is the terminal flush (Close): everything, walk-visit residue
// included.
func (c *counters) drainTally(t *tally) {
	c.flushTally(t, 0)
	if t.scanned > 0 {
		c.scanned.Add(uint64(t.scanned))
		t.scanned = 0
	}
}

// noteAdopted records n orphans freed by an adopter; adopted frees are
// ordinary frees for the Pending arithmetic. (Orphan batches only exist
// past a Release, which flushed the releasing guard's tally, so an adopted
// node's retire is always already in the shared counter.)
func (c *counters) noteAdopted(n int) {
	if n == 0 {
		return
	}
	c.freed.Add(uint64(n))
	c.adopted.Add(uint64(n))
}

// fill snapshots the counters. The occupied guards' unflushed retire
// residues are summed into Retired; the residues are read AFTER freed and BEFORE the
// shared retired counter, which preserves the no-impossible-snapshot
// ordering: freed is loaded first (bounded by true retires at that
// instant), every unflushed retire is then either still in a residue we
// read or already in the shared counter we read last — a flush racing the
// snapshot can only OVER-count Retired transiently (by at most one
// guard's residue), never show Freed > Retired.
func (c *counters) fill(s *Stats, p *slotPool, cores *arena[*slotCore]) {
	s.AdoptedNodes = c.adopted.Load()
	s.Freed = c.freed.Load()
	var res int64
	p.walkOccupied(func(i int) bool {
		res += cores.at(i).tally.res.Load()
		return true
	})
	s.Retired = c.retired.Load() + uint64(res)
	s.Pending = int64(s.Retired) - int64(s.Freed)
	s.OrphanedNodes = c.orphaned.Load()
	s.Scans = c.scans.Load()
	s.ScannedRecords = c.scanned.Load()
	s.EpochAdvances = c.epochs.Load()
	s.SwitchesToFallback = c.toFall.Load()
	s.SwitchesToFast = c.toFast.Load()
	s.Evictions = c.evictions.Load()
	s.Rejoins = c.rejoins.Load()
	s.RRetunes = c.retunesR.Load()
	s.CRetunes = c.retunesC.Load()
	s.Failed = c.failed.Load()
}

// retired is a node awaiting reclamation: the paper's timestamped_node, and
// the one record every backlog holds. stamp is the rooster tick at Retire
// for cadence and qsense, the retire era for ibr, and 0 otherwise. birth is
// the node's birth era, set and read by ibr only.
type retired struct {
	ref   mem.Ref
	stamp uint64
	birth uint64
}

// freeAll frees every node of rs and reports how many that was.
func freeAll(free func(mem.Ref), rs []retired) int {
	for _, n := range rs {
		free(n.ref)
	}
	return len(rs)
}

// sweep applies a free rule: it frees each node of rs that canFree allows
// and keeps the rest, in order, in rs's backing array. canFree must not
// escape (pass a literal or a function of pointers), so a pass that sweeps
// allocates nothing.
func sweep(free func(mem.Ref), rs []retired, canFree func(retired) bool) (kept []retired, freed int) {
	kept = rs[:0]
	for _, n := range rs {
		if canFree(n) {
			free(n.ref)
		} else {
			kept = append(kept, n)
		}
	}
	return kept, len(rs) - len(kept)
}
