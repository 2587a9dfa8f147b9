// Package qsense is the public API of the QSense reproduction: fast and
// robust safe memory reclamation (SMR) for concurrent data structures, after
// Balmau, Guerraoui, Herlihy and Zablotchi, "Fast and Robust Memory
// Reclamation for Concurrent Data Structures" (SPAA 2016).
//
// Two levels of API are offered.
//
// # Ready-made containers
//
// Seven lock-free containers arrive pre-wired to a reclamation domain:
// NewSet (Harris–Michael sorted linked list), NewSkipSet (Fraser skip
// list), NewTreeSet (Natarajan–Mittal external BST), NewHashSet (Michael
// hash table), NewQueue (Michael–Scott FIFO), NewStack (Treiber LIFO) and
// NewSkipMap (the skip list with a per-node value word — the key→value map
// cmd/qsense-kvd serves over TCP). A
// goroutine leases a handle with Acquire, uses it exclusively, and returns
// it with Release — any number of goroutines may come and go:
//
//	set, err := qsense.NewSet(qsense.Options{})
//	if err != nil {
//		// a misconfigured Options (e.g. an illegal QSense C) fails here
//	}
//	defer set.Close()
//	// in any goroutine (a request handler, a worker, ...):
//	h, err := set.Acquire() // grows the guard arena on demand; no sizing guess
//	if err != nil {
//		// only with Options.HardMaxWorkers set (backpressure); see below
//	}
//	defer h.Release()
//	h.Insert(42)
//	h.Contains(42)
//	h.Delete(42)
//
// # Capacity model
//
// Options.MaxWorkers is only the arena's initial (soft) size: when more
// goroutines lease simultaneously, the domain grows its guard arena by
// publish-once segments — Acquire succeeds instead of failing, so a
// goroutine-per-request server needs no worker-count guess. Callers that
// WANT admission control set Options.HardMaxWorkers: at that many live
// leases Acquire returns ErrNoSlots (shed load) and AcquireWait blocks
// until a Release (queue load) — the only configurations in which
// AcquireWait still matters. Stats reports the subsystem's behaviour:
// ArenaSize, HighWaterWorkers, ArenaGrowths.
//
// Reclamation cost tracks LIVE occupancy, not the arena's high-water size:
// every internal pass (hazard pointer scans, epoch advances, flush passes)
// iterates an occupancy index of the currently leased slots, and once a
// burst drains, all-free trailing capacity is parked — skipped by every
// pass outright — and silently reused before the arena ever grows again
// (Stats.ParkedSlots/SegmentParks/SegmentUnparks). The scan and fallback
// thresholds likewise re-tune to the live worker count at capacity
// transitions (Stats.RRetunes/CRetunes), so a domain that grew to 10,000
// workers and shrank back to 8 behaves — and costs — like an 8-worker
// domain.
//
// Release returns the slot immediately; retired nodes whose grace period
// has not yet elapsed move to the domain's orphan list and are freed by
// other workers' reclamation passes (Stats.OrphanedNodes/AdoptedNodes), so
// a slot that never re-leases strands no memory.
//
// A lease is the only way to occupy a slot, and it may last as long as the
// caller likes. The paper's fixed set of N processes is N goroutines that
// each Acquire once and hold their handle for the whole run; with
// MaxWorkers and HardMaxWorkers both N the arena is exactly the paper's.
//
// # Custom structures
//
// A structure of your own allocates nodes from a Pool (generation-tagged
// handles instead of raw pointers — a stale handle is detected, not
// silently wrong), binds a Domain with NewDomain, and leases a Guard per
// goroutine with Domain.Acquire / Guard.Release. Between Acquire and
// Release, place the paper's three calls (§4.2): Guard.Begin where the
// worker holds no shared references, Guard.Protect before using a loaded
// reference (re-validate the link afterwards, per Michael's methodology),
// Guard.Retire where a sequential program would call free. See
// examples/workqueue for a complete custom integration.
//
// # Schemes
//
// The reclamation scheme is selected per domain via Options.Scheme:
// SchemeQSense (default — QSBR fast path, Cadence fallback under process
// delays), SchemeQSBR, SchemeHP, SchemeCadence, SchemeNone, and the
// related-work baselines SchemeEBR, SchemeRC, SchemeIBR (interval-based
// reclamation: per-node birth/retire era stamps against per-worker
// reservation intervals — robustness without per-pointer protection) and
// SchemeHyaline (snapshot-free batch handoff: each retire batch carries a
// reference counter seeded from the active workers it was delivered to,
// and the last acknowledger frees the whole batch). ParseScheme validates
// a scheme name from flags or config; SchemeNames lists the valid names.
// All containers and the custom-structure API are scheme-agnostic: every
// container runs under every scheme, because each traversal publishes a
// protection per hop and re-validates the link (what the pointer-based
// schemes need) and tolerates reading a retired, not yet freed node (what
// ibr needs).
package qsense

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"qsense/internal/mem"
	"qsense/internal/reclaim"
	"qsense/internal/rooster"
)

// ErrNoSlots is returned by the Acquire methods only when the domain was
// built with Options.HardMaxWorkers and the arena has grown to that cap
// with every guard slot leased. By default domains are elastic —
// the arena grows on demand and Acquire does not fail. Callers at a hard
// cap can block with AcquireWait, retry once another goroutine Releases,
// or construct the domain/container with a larger (or no) cap.
var ErrNoSlots = reclaim.ErrNoSlots

// Scheme selects a reclamation algorithm.
type Scheme string

// The available reclamation schemes.
const (
	// SchemeQSense is the paper's hybrid: QSBR in the common case,
	// Cadence (fence-free hazard pointers) under prolonged delays.
	SchemeQSense Scheme = "qsense"
	// SchemeQSBR is quiescent-state-based reclamation: fastest, but one
	// delayed worker blocks reclamation system-wide.
	SchemeQSBR Scheme = "qsbr"
	// SchemeHP is Michael's hazard pointers: robust, one sequentially
	// consistent store per node visited — in Go that store is the fence,
	// and it is all hp costs here (the paper's 50 ns mfence is modelled
	// only by the figure harness, as the curve hp@model50ns).
	SchemeHP Scheme = "hp"
	// SchemeCadence is the paper's fence-free hazard pointer variant,
	// stand-alone.
	SchemeCadence Scheme = "cadence"
	// SchemeEBR is Fraser-style epoch-based reclamation.
	SchemeEBR Scheme = "ebr"
	// SchemeRC is lock-free reference counting (two RMWs per node).
	SchemeRC Scheme = "rc"
	// SchemeIBR is interval-based reclamation (2GE-IBR): nodes carry
	// birth/retire era stamps, workers reserve the era interval their
	// operation spans, and a node frees once its lifetime misses every
	// reservation — epoch-class read cost with HP-class robustness.
	SchemeIBR Scheme = "ibr"
	// SchemeHyaline is snapshot-free batch-handoff reclamation: a retire
	// batch is delivered to every active worker's inbox with a reference
	// count, each worker acknowledges at its next operation boundary, and
	// the last acknowledgment frees the batch — no scans, no epochs.
	SchemeHyaline Scheme = "hyaline"
	// SchemeNone leaks: the evaluation baseline, not for production.
	SchemeNone Scheme = "none"
)

// SchemeNames returns the valid Options.Scheme values, in the library's
// canonical order — the single source binaries should range over for flag
// validation and scheme sweeps instead of hard-coding the list.
func SchemeNames() []string { return reclaim.Schemes() }

// ParseScheme validates a scheme name from a flag, a config file or an
// environment variable. The error lists the valid names.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range reclaim.Schemes() {
		if name == s {
			return Scheme(s), nil
		}
	}
	return "", fmt.Errorf("qsense: unknown scheme %q (valid: %s)", name, strings.Join(reclaim.Schemes(), ", "))
}

// Options configures a container or a custom Domain. The zero value means
// SchemeQSense with library defaults and an elastic slot arena that starts
// sized for the machine (2×GOMAXPROCS) and grows on demand — Acquire does
// not fail, however many goroutines lease at once.
type Options struct {
	// MaxWorkers is the INITIAL guard-slot arena size: how many
	// simultaneous leases the domain accommodates before it grows, and
	// the grain by which growth doubles capacity. It is a soft size — a
	// burst of goroutines beyond it makes the arena grow (by publish-once
	// slot segments; existing guards never move) rather than fail; set
	// HardMaxWorkers to bound that growth. Default
	// 2*runtime.GOMAXPROCS(0).
	MaxWorkers int
	// HardMaxWorkers, when > 0, caps arena growth: once the arena holds
	// this many slots and all are leased, Acquire returns ErrNoSlots and
	// AcquireWait blocks until a Release — the backpressure semantics for
	// callers that would rather shed or queue load than admit it. 0 (the
	// default) means elastic: growth up to a large library ceiling, and
	// Acquire effectively never fails. A cap below the initial size
	// lowers the initial size to the cap.
	HardMaxWorkers int
	// Scheme is the reclamation algorithm. Default SchemeQSense.
	Scheme Scheme
	// HPs is the number of hazard pointer slots per worker. Containers
	// set it themselves; custom domains must set it to the maximum
	// number of references a worker protects simultaneously.
	HPs int
	// Q is the quiescence threshold (reclamation work runs once per Q
	// operations on the epoch-based paths). 0 = default.
	Q int
	// R is the scan threshold for the pointer-based paths. 0 = default.
	R int
	// C is QSense's fallback trigger: a worker holding C retired-but-
	// unreclaimed nodes raises the fallback flag. 0 = default (a legal
	// value per the paper's §6.2).
	C int
	// MemoryLimit, when > 0, marks the domain Failed once more retired
	// nodes than this await reclamation (out-of-memory emulation for
	// experiments; leave 0 in applications).
	MemoryLimit int
	// RoosterInterval is the rooster period T (Cadence/QSense). 0 =
	// default (2ms).
	RoosterInterval time.Duration
	// EvictAfter enables crashed-worker eviction on the epoch-based
	// schemes: a handle that has not passed a quiescent state for this
	// long is treated as crashed and excluded from grace periods (QSense
	// §5.2's sketched extension; surfaces as Stats.Evictions). 0 disables
	// eviction — a stalled-but-alive reader then blocks the epoch schemes
	// indefinitely, which is exactly the robustness gap the pointer-based
	// schemes close.
	EvictAfter time.Duration
	// MaxNodes bounds a container's node pool. 0 = default.
	MaxNodes int
	// Era supplies the era clock SchemeIBR stamps node lifetimes against —
	// for a custom structure, the structure's own *Pool[T] (which
	// implements EraSource). The containers wire their internal pools
	// automatically; leave nil there. Nil under SchemeIBR is safe but
	// degrades precision: every node reads as born at era 0, so interval
	// disjointness decays to retire-epoch-only reasoning.
	Era EraSource
}

// EraSource is a monotonic era clock with per-node birth stamps — what
// SchemeIBR measures node lifetimes and reservation intervals against.
// *Pool[T] implements it; custom structures pass their pool as
// Options.Era.
type EraSource interface {
	// Era returns the current era.
	Era() uint64
	// AdvanceEra increments the era and returns the new value.
	AdvanceEra() uint64
	// BirthEra returns the era r's node was allocated in (0 for nil).
	BirthEra(Ref) uint64
}

// eraBridge adapts the public Ref-typed EraSource to the internal layer.
type eraBridge struct{ src EraSource }

func (b eraBridge) Era() uint64               { return b.src.Era() }
func (b eraBridge) AdvanceEra() uint64        { return b.src.AdvanceEra() }
func (b eraBridge) BirthEra(r mem.Ref) uint64 { return b.src.BirthEra(Ref(r)) }

func (o Options) reclaimConfig(hps int, free func(mem.Ref)) reclaim.Config {
	if o.HPs > hps {
		hps = o.HPs
	}
	var era reclaim.EraSource
	if o.Era != nil {
		era = eraBridge{o.Era}
	}
	return reclaim.Config{
		Workers:        o.arena(),
		HardMaxWorkers: o.HardMaxWorkers,
		HPs:            hps,
		Free:           free,
		Q:              o.Q,
		R:              o.R,
		C:              o.C,
		MemoryLimit:    o.MemoryLimit,
		Rooster:        rooster.Config{Interval: o.RoosterInterval},
		EvictAfter:     o.EvictAfter,
		Era:            era,
	}
}

func (o Options) scheme() string {
	if o.Scheme == "" {
		return string(SchemeQSense)
	}
	return string(o.Scheme)
}

// arena is the initial guard-slot arena size: MaxWorkers (or the machine
// default), lowered to HardMaxWorkers when a smaller cap is set.
func (o Options) arena() int {
	n := o.MaxWorkers
	if n <= 0 {
		n = 2 * runtime.GOMAXPROCS(0)
	}
	if o.HardMaxWorkers > 0 && n > o.HardMaxWorkers {
		n = o.HardMaxWorkers
	}
	return n
}

// Stats is a snapshot of a domain's reclamation counters. Its fields are
// internal/reclaim's Stats in the same sequence, so a snapshot is a plain
// conversion and a counter added on one side only does not compile.
type Stats struct {
	Scheme string
	// Retired counts nodes handed to Retire; Freed counts completed
	// frees; Pending is the difference (nodes awaiting reclamation).
	Retired, Freed uint64
	Pending        int64
	// Scans counts hazard pointer scans; QuiescentStates and
	// EpochAdvances count epoch machinery activity. ScannedRecords counts
	// the per-slot records those passes actually visited: with the
	// occupancy index it grows with the live worker count per pass, not
	// with how large the arena once was — divide by Scans (or
	// EpochAdvances) to see the per-pass cost the paper's N·K term
	// models.
	Scans, ScannedRecords, QuiescentStates, EpochAdvances uint64
	// SwitchesToFallback/SwitchesToFast count QSense path switches
	// (InFallback, below, is the current path).
	SwitchesToFallback, SwitchesToFast uint64
	// Evictions counts workers excluded as crashed (Options with
	// eviction enabled on epoch schemes); Rejoins counts recoveries: a
	// worker that reached a quiescent state while out of the protocol
	// (evicted, or operating after Leave without Join). A Join after
	// Leave is not one.
	Evictions, Rejoins uint64
	// AcquiredHandles and ReleasedHandles count handle leases granted
	// and returned; their difference is the number leased right now.
	AcquiredHandles, ReleasedHandles uint64
	// ArenaSize is the current guard-slot arena size (MaxWorkers until
	// growth engages); HighWaterWorkers is the peak number of
	// simultaneously leased slots; ArenaGrowths counts elastic
	// segment publications. ArenaGrowths > 0 on a long-lived domain is a
	// hint that MaxWorkers undershoots the real concurrency.
	ArenaSize, HighWaterWorkers int
	ArenaGrowths                uint64
	// ParkedSlots is how many published slots currently rest in parked
	// (all-free, walk-skipped) trailing segments; they are reused before
	// the arena grows again. SegmentParks/SegmentUnparks count the
	// transitions — a high churn between them means occupancy keeps
	// crossing the parking low-water mark.
	ParkedSlots                  int
	SegmentParks, SegmentUnparks uint64
	// EffectiveR/EffectiveC are the scan and fallback thresholds in
	// force after occupancy-aware re-tuning (zero when the scheme has no
	// such threshold); RRetunes/CRetunes count threshold changes applied
	// at capacity transitions. CRetunes > 0 with an explicit Options.C
	// means growth forced C up to stay legal per the paper's §6.2 bound.
	EffectiveR, EffectiveC int
	RRetunes, CRetunes     uint64
	// OrphanedNodes counts retired nodes a Release could not yet prove
	// safe and moved to the domain's orphan list; AdoptedNodes counts
	// orphans since freed by other workers' reclamation passes. Orphans
	// remain Pending (and count against MemoryLimit) until adopted.
	OrphanedNodes, AdoptedNodes uint64
	// IBRIntervalWidth is the widest active reservation interval
	// (upper−lower, in eras) across live workers at snapshot time — how
	// far SchemeIBR's slowest in-flight operation lags the era clock, and
	// so how much retired memory one stalled reader can pin. 0 on other
	// schemes and when no reservation is open.
	IBRIntervalWidth uint64
	// HyalineBatchRefs is the number of published-but-unacknowledged
	// batch deliveries outstanding across all workers — SchemeHyaline's
	// reclamation lag: it rises while workers sit mid-operation on
	// delivered batches and returns to 0 as their next boundaries
	// acknowledge. 0 on other schemes.
	HyalineBatchRefs int64
	// InFallback reports QSense's current path.
	InFallback bool
	// RoosterPasses counts completed rooster flush passes (Cadence,
	// QSense).
	RoosterPasses uint64
	// Failed reports a MemoryLimit breach.
	Failed bool
}
