// Package reclaim implements the paper's concurrent memory reclamation
// schemes — and the related-work baselines it is measured against — over
// the mem substrate. Schemes lists the nine names New accepts.
//
// Anatomy of a scheme. core.go holds the lease-lifecycle kernel,
// domainCore, which every scheme's domain embeds and which implements the
// whole Domain interface once: it owns the name, the defaulted Config, the
// counters and per-guard retire tallies, the optional threshold tuner and
// rooster, the slot pool and orphan list, and with them
// Acquire/AcquireWait/Release/Name/Failed/Stats/Close. A scheme file
// is a policy behind that lifecycle: a constructor that builds its guards,
// and four hooks — join (what a fresh tenant does before its first
// operation), drain (what Release frees, and strands on the orphan list,
// while the slot is in the releasing state), closeFree (free the backlog
// unconditionally) and an optional extraStats — next to the paper's calls
// on its concrete guard type, so the per-operation path never crosses an
// interface the caller did not already hold.
//
// Every scheme's backlog is a []retired (core.go), and every free goes
// through one of two helpers: freeAll for a backlog that is wholly safe (a
// matured epoch bucket, Close) and sweep for one judged node by node. A
// scheme writes its free rule once — epoch matured (qsbr, ebr, qsense's
// fast path), old enough and unprotected (hp, cadence, qsense's fallback:
// oldAndFree), lifetime misses every reservation (ibr), count claimed (rc)
// — and passes the same rule to orphanList.adopt, so the orphans a
// released slot leaves behind are freed by the rule of whoever adopts them.
//
// The three functions of the paper's interface map to:
//
//	manage_qsense_state  ->  Guard.Begin
//	assign_HP            ->  Guard.Protect
//	free_node_later      ->  Guard.Retire
//
// A Domain manages reclamation for one data structure instance over an
// elastic arena of guard slots. The paper does not support dynamic
// membership (§5.2); this implementation builds out its sketched fix three
// times over: membership.go lets epoch-scheme workers Leave/Join (and
// evicts crashed ones), slots.go leases whole guard slots dynamically —
// Acquire (or the blocking AcquireWait) hands a free slot to any
// goroutine, Release drains it and recycles it — and the arena itself
// GROWS when the freelist runs dry (arena.go): Config.Workers is only the
// initial soft size, and Acquire appends publish-once slot segments on
// demand, failing with ErrNoSlots only at an optional Config.HardMaxWorkers
// cap. Backlog a Release cannot yet prove safe moves to a per-domain
// orphan list (orphan.go) and is adopted by other workers' reclamation
// passes, so a vacated slot never strands retired nodes. A lease is the
// only tenancy: the paper's fixed process is a worker that Acquires once
// and holds its guard for the whole run (what the experiment harness does
// by default).
package reclaim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"qsense/internal/mem"
	"qsense/internal/rooster"
)

// Guard is a worker's per-thread reclamation handle. Methods must be called
// only by the owning worker; Protect'ed references are published for
// concurrent scans by other workers' guards.
type Guard interface {
	// Begin is the paper's manage_qsense_state: call it in states where
	// the worker holds no references to shared nodes — conventionally at
	// the start of every data structure operation. Schemes batch the real
	// work: only every Q-th call declares a quiescent state.
	Begin()

	// Protect is the paper's assign_HP: publish hazard pointer slot i as
	// protecting r, so no scan reclaims r's node. Tag bits are ignored.
	// Protecting a nil Ref clears the slot. Following Michael's
	// methodology the caller must re-validate the source link after
	// Protect returns and retry if it changed.
	Protect(i int, r mem.Ref)

	// Retire is the paper's free_node_later: hand over a node that has
	// been unlinked from the structure. The scheme frees it once safe.
	Retire(r mem.Ref)

	// ClearHPs releases all of this guard's hazard pointers; call at the
	// end of an operation. (Optional for correctness — stale protections
	// only delay reclamation — but keeps memory bounds tight.)
	ClearHPs()
}

// Domain manages reclamation state shared by all workers of one structure.
type Domain interface {
	// Acquire leases a free guard slot to the calling goroutine, running
	// the scheme's join path (epoch adoption, aged-limbo frees) so a
	// recycled slot resumes cleanly. When the freelist is empty the arena
	// grows by a publish-once slot segment, so by default Acquire does not
	// fail; it returns ErrNoSlots only once the arena has reached
	// Config.HardMaxWorkers with every slot leased.
	Acquire() (Guard, error)
	// AcquireWait is Acquire that blocks while the arena is exhausted at
	// its hard cap: the caller parks on the slot pool's waiter channel and
	// is woken by the next Release, instead of spinning on ErrNoSlots. It
	// returns ctx.Err() if ctx is done first. On an elastic domain (no
	// hard cap) it behaves exactly like Acquire — growth preempts waiting.
	AcquireWait(ctx context.Context) (Guard, error)
	// Release returns g's slot to the freelist: protections are drained,
	// epoch schemes Leave (so the slot no longer blocks grace periods or
	// QSense's presence scan), and what backlog can be freed safely is
	// freed. Backlog that cannot yet be proven safe (unaged limbo,
	// protected or too-young deferred nodes) is moved to the domain's
	// orphan list, where any worker's later reclamation pass adopts and
	// frees it — a vacated slot never strands retired nodes, even if it
	// is never leased again. The guard must not be used after Release.
	// Releasing an already-released guard is a no-op — but note
	// the guard's slot may have been re-leased by then, so call Release
	// exactly once, from the owning goroutine. (The public API wraps
	// guards with a once-flag; internal callers keep the discipline
	// themselves.)
	Release(g Guard)
	// Name returns the scheme name ("qsbr", "hp", ...).
	Name() string
	// Failed reports whether the domain exceeded Config.MemoryLimit —
	// the harness's stand-in for the paper's "system runs out of memory
	// and eventually fails" (§7.3). Blocking schemes fail under
	// prolonged delays; robust schemes should never fail.
	Failed() bool
	// Stats returns a snapshot of reclamation counters.
	Stats() Stats
	// Close stops background machinery and frees every node still
	// awaiting reclamation. Call only after all workers have stopped.
	Close()
}

// EraSource is the birth-era clock interface the interval-based scheme
// (ibr) consumes. A *mem.Pool[T] satisfies it directly: the pool stamps each
// slot with the current era at Alloc, AdvanceEra moves the clock, and
// BirthEra reads the stamp back at Retire time. When Config.Era is nil the
// ibr domain falls back to an internal clock with every node's birth taken
// as era 0 — safe (a node is never freed early) but unable to reclaim past
// a stalled reader, i.e. no better than epochs; wiring the real pool clock
// restores interval robustness.
type EraSource interface {
	// Era returns the current birth-era clock value.
	Era() uint64
	// AdvanceEra bumps the clock and returns the new value.
	AdvanceEra() uint64
	// BirthEra returns the era stamped on r at allocation. Called by the
	// retiring guard while it still owns the node.
	BirthEra(r mem.Ref) uint64
}

// Config parameterizes a Domain. The zero value is not usable: Workers,
// HPs and Free are mandatory (Free may be omitted only for None).
type Config struct {
	// Workers is the INITIAL guard-slot arena size (the paper's N; the
	// public Options.MaxWorkers): segment 0 of the elastic arena, and the
	// grain by which growth doubles it. It is a soft size — when more
	// guards are leased simultaneously, the arena grows (see
	// HardMaxWorkers) — and not a count of OS threads: any number of
	// goroutines may share the arena through Acquire/Release over time.
	Workers int
	// HardMaxWorkers caps elastic growth: once the arena holds this many
	// slots and all are leased, Acquire returns ErrNoSlots and AcquireWait
	// blocks — the pre-elastic backpressure semantics. 0 (the
	// default) leaves the domain elastic up to the library ceiling
	// MaxArenaSlots; set it equal to Workers to reproduce the paper's
	// fixed arena exactly. A cap below Workers is a configuration error.
	HardMaxWorkers int
	// HPs is the number of hazard pointers per worker (K). The linked
	// list uses 3, the BST 6, the skip list 2*levels+3 (§7.3: 35 at 16 levels).
	HPs int
	// Free returns a retired node's memory to its pool.
	Free func(mem.Ref)

	// Q is the quiescence threshold (§3.1): one quiescent state is
	// declared per Q Begin calls. Default 32.
	Q int
	// R is the scan threshold (§5.1): pointer-based schemes scan once
	// per R retires. Default 2*Workers*HPs + 64. When left zero, the
	// default formula is re-applied with the LIVE worker count at every
	// capacity transition (growth, segment park/unpark — see tune.go), so
	// a grown or drained arena keeps the paper's scan amortization; an
	// explicit value is respected verbatim.
	R int
	// C is QSense's fallback threshold (§5.2): a worker whose limbo
	// lists hold >= C nodes triggers the switch to the fallback path.
	// Property 4 requires a legal value (NewQSense rejects C below
	// LegalC), but C must also comfortably exceed the fast path's normal
	// backlog — roughly 3 epochs' worth of retires at full speed — or
	// the trigger fires with no delay present ("reaching a large removed
	// nodes list size indicates that quiescence was not possible for an
	// extended period", §5.2 step 1). Default max(LegalC, 8192). §6.2's
	// bound binds against the CURRENT worker count: when elastic growth
	// raises LegalC past a configured C, the effective threshold is
	// raised to stay legal (and falls back once the arena drains; see
	// tune.go and Stats.CRetunes).
	C int
	// MemoryLimit, when > 0, marks the domain Failed once more than this
	// many retired nodes await reclamation (OOM emulation). The retiring
	// guard checks the limit on every Retire against the shared counters
	// plus its own unflushed tally, so detection can lag the true
	// crossing only by OTHER guards' unflushed retire tallies (at most
	// tallyFlushEvery-1 each); Stats.Pending itself stays exact (it sums
	// the unflushed tallies).
	MemoryLimit int

	// Rooster configures the rooster manager (Cadence and QSense).
	Rooster rooster.Config
	// ManualRooster suppresses the manager's timer; tests drive passes
	// deterministically through Domain-specific Step methods.
	ManualRooster bool

	// FenceCost, when > 0, adds a modelled stall of this length
	// (internal/fence's calibrated busy-spin) to every HP Protect, on top
	// of the publication's own sequentially consistent store. 0 — every
	// default path — is what the hardware charges: that store and nothing
	// else. Only a harness reproducing the paper's hardware sets it (to
	// fence.DefaultCost), and names it in everything it emits
	// (hp@model50ns). Negative is a configuration error; every other
	// scheme ignores the field.
	FenceCost time.Duration

	// Deprecated: ignored; the domain core has one shard.
	Shards int

	// Era supplies the birth-era clock for the interval-based scheme; see
	// EraSource. Ignored by every other scheme. nil degrades ibr to an
	// internal clock with all-zero birth stamps (safe, epoch-equivalent).
	Era EraSource

	// FaultHook, when non-nil, is called at the named fault-injection sync
	// points with the guard's slot index (internal/fault threads its
	// injector through here). The hook runs ON the guard's goroutine at a
	// point where the scheme believes the worker is mid-protocol — a hook
	// that blocks models a reader stalled exactly there (descheduled,
	// page-faulted, crashed), which is what the robustness matrix does.
	// Production configs leave it nil and pay one predictable-nil branch
	// per sync point, off the per-access hot path.
	FaultHook func(FaultPoint, int)

	// EvictAfter enables the paper's sketched eviction extension (§5.2
	// future work) on the epoch-based schemes: a worker that has not
	// declared a quiescent state for this long is treated as crashed and
	// excluded from grace periods (and from QSense's presence scan, so
	// the fast path can resume after a permanent crash). SAFETY
	// ASSUMPTION: an evicted worker performs no shared accesses until it
	// rejoins — enable only where silence really means crash. 0 (the
	// default) disables eviction. See membership.go.
	EvictAfter time.Duration

	// rAuto/cAuto record that R/C were defaulted rather than configured,
	// which is what licenses the tuner to re-derive them from live
	// occupancy at capacity transitions (set by withDefaults; tune.go).
	rAuto, cAuto bool
}

// FaultPoint names a fault-injection sync point inside a scheme's protocol
// (Config.FaultHook). A reader stalled at each point exhibits one of the
// canonical failure modes the paper's robustness argument distinguishes:
type FaultPoint string

const (
	// FaultQuiesce: an epoch-class reader that entered its quiescence/
	// announcement step and never completes it. QSBR and QSense fire it on
	// the Q-th Begin just before the quiescent state is declared (the
	// worker is acquired-but-never-quiescing: its stale local epoch pins
	// the global); EBR fires it right after announcing (epoch, active) —
	// the active announcement pins the epoch until the operation ends.
	FaultQuiesce FaultPoint = "quiesce"
	// FaultProtect: a pointer-class reader stalled with a protection held.
	// HP/Cadence/QSense fire it after the hazard publication, RC after the
	// counted acquire, IBR after widening the reservation's upper bound —
	// in every case the stalled reader pins exactly what it published.
	FaultProtect FaultPoint = "protect"
	// FaultInbox: a Hyaline reader stalled mid-operation with its inbox
	// active and deliveries unacknowledged — it pins every batch pushed to
	// it until the operation ends.
	FaultInbox FaultPoint = "inbox"
)

// fire invokes the fault hook if one is installed: one predictable branch
// when disabled, sitting at protocol sync points rather than per-access
// fast paths.
func (c *Config) fire(p FaultPoint, slot int) {
	if c.FaultHook != nil {
		c.FaultHook(p, slot)
	}
}

func (c Config) withDefaults() Config {
	if c.HardMaxWorkers <= 0 {
		c.HardMaxWorkers = MaxArenaSlots
	}
	if c.Q <= 0 {
		c.Q = 32
	}
	if c.R <= 0 {
		c.R = 2*c.Workers*c.HPs + 64
		c.rAuto = true // defaulted: re-derive from live occupancy (tune.go)
	}
	if c.C <= 0 {
		c.C = max(LegalC(c), 8192)
		c.cAuto = true
	}
	return c
}

// Validate reports configuration errors common to all schemes.
func (c Config) Validate(needFree bool) error {
	if c.Workers <= 0 {
		return errors.New("reclaim: Config.Workers must be positive")
	}
	if c.HardMaxWorkers > 0 && c.HardMaxWorkers < c.Workers {
		return errors.New("reclaim: Config.HardMaxWorkers is below Config.Workers, the initial arena")
	}
	if c.HPs <= 0 {
		return errors.New("reclaim: Config.HPs must be positive")
	}
	if needFree && c.Free == nil {
		return errors.New("reclaim: Config.Free is required")
	}
	if c.FenceCost < 0 {
		return errors.New("reclaim: Config.FenceCost is negative (0 already means no modelled fence)")
	}
	return nil
}

// maxRemovePerOp is the paper's m, the most nodes one operation can remove:
// 2 for the external BST (a leaf and its parent), 1 for every other
// structure here. LegalC takes the largest, so one bound covers them all.
const maxRemovePerOp = 2

// LegalC returns the smallest legal fallback threshold per §6.2:
// C > max(mQ, NK+T, (K+T+R)/2), with the rooster interval T expressed in
// retired nodes per rooster pass; we bound that by R (a worker scans, and
// thus caps its backlog growth, every R retires), which keeps the bound
// sound while staying in node units.
func LegalC(c Config) int {
	if c.Q <= 0 {
		c.Q = 32
	}
	if c.R <= 0 {
		c.R = 2*c.Workers*c.HPs + 64
	}
	t := c.R // stand-in for T in node units; see doc comment
	m := max(
		maxRemovePerOp*c.Q,
		c.Workers*c.HPs+t,
		(c.HPs+t+c.R)/2,
	)
	return m + 1
}

// Scheme names: the one place each string lives. A constructor hands its
// name to the kernel, so Domain.Name, Stats.Scheme and New all agree.
const (
	nameNone    = "none"
	nameQSBR    = "qsbr"
	nameHP      = "hp"
	nameCadence = "cadence"
	nameQSense  = "qsense"
	nameEBR     = "ebr"
	nameRC      = "rc"
	nameIBR     = "ibr"
	nameHyaline = "hyaline"
)

// schemes lists the constructors in evaluation order: the paper's five
// first, then the §8 related-work baselines (epoch-based reclamation,
// Fraser style; lock-free reference counting), then the post-paper scheme
// families (interval-based reclamation, 2GEIBR style; Hyaline's
// snapshot-free batch refcounts).
var schemes = []struct {
	name string
	new  func(Config) (Domain, error)
}{
	{nameNone, asDomain(NewNone)},
	{nameQSBR, asDomain(NewQSBR)},
	{nameHP, asDomain(NewHP)},
	{nameCadence, asDomain(NewCadence)},
	{nameQSense, asDomain(NewQSense)},
	{nameEBR, asDomain(NewEBR)},
	{nameRC, asDomain(NewRC)},
	{nameIBR, asDomain(NewIBR)},
	{nameHyaline, asDomain(NewHyaline)},
}

// asDomain adapts a concrete constructor to the factory's signature,
// keeping a failed construction's nil pointer out of the interface value.
func asDomain[D Domain](mk func(Config) (D, error)) func(Config) (Domain, error) {
	return func(cfg Config) (Domain, error) {
		d, err := mk(cfg)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
}

// New constructs the named scheme; Schemes lists the valid names.
func New(name string, cfg Config) (Domain, error) {
	for _, s := range schemes {
		if s.name == name {
			return s.new(cfg)
		}
	}
	return nil, fmt.Errorf("reclaim: unknown scheme %q (valid: %v)", name, Schemes())
}

// Schemes lists the scheme names accepted by New, in evaluation order.
func Schemes() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.name
	}
	return names
}

// Stats is a point-in-time snapshot of a domain's counters.
type Stats struct {
	Scheme string
	// Retired and Freed count Retire calls and completed frees.
	Retired, Freed uint64
	// Pending is Retired-Freed: nodes awaiting reclamation now.
	Pending int64
	// Scans counts hazard-pointer scans (HP, Cadence, QSense fallback).
	Scans uint64
	// ScannedRecords counts per-slot records VISITED by reclamation
	// walks: HP snapshot collection, epoch-advance checks, QSense's
	// presence sweep/reset, and rooster flush walks. With the occupancy
	// index this grows with live workers per pass, not with the arena's
	// high-water size — the counter burst-then-idle tests and the
	// ScanAfterBurst benchmark assert proportionality on. Guard-driven
	// walks batch their visit counts with the guard's tally (flushed
	// with the next retire/free flush), so live reads can lag by a small
	// per-guard residue; Close drains the residues.
	ScannedRecords uint64
	// QuiescentStates counts declared quiescent states (QSBR, QSense).
	QuiescentStates uint64
	// EpochAdvances counts global epoch increments (QSBR, QSense).
	EpochAdvances uint64
	// SwitchesToFallback / SwitchesToFast count QSense path switches.
	SwitchesToFallback, SwitchesToFast uint64
	// Evictions and Rejoins count membership events (membership.go):
	// workers excluded as crashed, and workers recovered at a quiescent
	// state they reached while inactive (evicted, or operating after
	// Leave without Join). A lease or a Join after Leave counts neither.
	Evictions, Rejoins uint64
	// AcquiredHandles and ReleasedHandles count slot leases granted and
	// returned (slots.go); their difference is the leased count now.
	AcquiredHandles, ReleasedHandles uint64
	// ArenaSize is the current guard-slot arena size (published slots —
	// Config.Workers until growth engages); HighWaterWorkers is the peak
	// number of simultaneously leased slots; and
	// ArenaGrowths counts elastic segment publications past construction.
	ArenaSize, HighWaterWorkers int
	ArenaGrowths                uint64
	// ParkedSlots is how many published slots currently rest in parked
	// segments — all-free trailing segments pulled out of the freelist
	// and skipped by every reclamation walk, so scan cost decays after a
	// burst instead of ratcheting at the high-water mark (occupancy.go).
	// SegmentParks/SegmentUnparks count the transitions.
	ParkedSlots                  int
	SegmentParks, SegmentUnparks uint64
	// EffectiveR/EffectiveC are the thresholds currently in force after
	// occupancy-aware re-tuning (tune.go); RRetunes/CRetunes count the
	// applied changes. Zero Effective values mean the scheme has no
	// tunable threshold (QSBR, None).
	EffectiveR, EffectiveC int
	RRetunes, CRetunes     uint64
	// OrphanedNodes counts nodes a Release could not yet prove safe and
	// moved to the domain's orphan list (orphan.go); AdoptedNodes counts
	// orphans later freed by other workers' reclamation passes. Orphans
	// remain Pending (and count against MemoryLimit) until adopted.
	OrphanedNodes, AdoptedNodes uint64
	// IBRIntervalWidth is the widest active reservation interval
	// (upper-lower, in eras) observed across occupied slots at snapshot
	// time — a live measure of how much history readers currently pin.
	// Zero for every scheme but ibr, and for ibr when no reservation is
	// active.
	IBRIntervalWidth uint64
	// HyalineBatchRefs is the sum of outstanding reference counts over
	// this domain's unreclaimed hyaline batches: how many slot-inbox
	// deliveries still have to be acknowledged before those batches free.
	// Zero for every scheme but hyaline.
	HyalineBatchRefs int64
	// InFallback reports QSense's current path.
	InFallback bool
	// RoosterPasses counts completed rooster flush passes.
	RoosterPasses uint64
	// Failed mirrors Domain.Failed.
	Failed bool
}

// SlotIndex reports the arena slot index a guard occupies, stable across
// leases: slot w's guard is the same object for every tenant. The public
// containers seed a slot's structure handle with it.
func SlotIndex(g Guard) int {
	return g.(policy).core().id
}

// SlotClient returns the client cell of the slot g occupies: one value per
// slot, nil until set, that survives every lease. The public containers and
// the harness keep there the structure handle they bind to the slot's guard
// on its first lease, which stays correct for every later tenant because
// the guard is the same object. The cell belongs to the slot's current
// leaseholder, ordered by the slot pool's lease and release atomics, and it
// lives in the slot's kernel record, so slots minted by elastic growth have
// one too.
func SlotClient(g Guard) *any {
	c := g.(policy).core()
	return &c.dom.cores.at(c.id).client
}
