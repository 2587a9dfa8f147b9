package reclaim

import (
	"fmt"
	"sync/atomic"

	"qsense/internal/mem"
	"qsense/internal/rooster"
)

// QSense is the paper's hybrid scheme (§5.2, Algorithm 5): QSBR on the fast
// path, Cadence on the fallback path, switching automatically.
//
// Some machinery is always on, whatever the current path (§5.2): hazard
// pointers are published (fence-free, into pending slots) during every
// traversal, retired nodes are always stamped with the rooster tick, and the
// rooster manager keeps flushing pending slots. That standing cost is why
// QSense trails plain QSBR slightly in the common case (§7.3) — and it is
// what makes an instant, safe switch to the fallback path possible: the
// moment the fallback flag rises, every reference that was hazardous before
// the switch is already protected.
//
// Path switching:
//
//   - fast -> fallback: a worker whose limbo lists hold >= C nodes raises
//     the shared fallback flag and immediately runs a Cadence scan over its
//     three limbo buckets. Other workers observe the flag in Retire.
//   - fallback -> fast: workers set their presence flag every Q-th Begin;
//     the rooster manager clears all flags every presenceResetTicks passes.
//     A worker that observes every flag set concludes all workers are live
//     again, lowers the fallback flag, and declares a quiescent state.
//
// Every one of the hybrid's slot-iteration sites — the epoch-advance check,
// the presence sweep and its periodic reset, HP snapshot scans, rooster
// flush passes — walks the occupancy index (occupancy.go), so their cost
// tracks live workers, not the arena's high-water size. Both thresholds
// re-tune with occupancy at capacity transitions (tune.go): R follows the
// scan-amortization formula, and C is re-validated against §6.2's LegalC
// bound for the CURRENT worker count — growth can raise the effective C
// above a configured value that became illegal (Stats.CRetunes counts the
// adjustments).
//
// In fallback mode the three QSBR limbo buckets serve as Cadence's removed
// nodes list and are scanned (deferred, HP-checked) every R retires; in fast
// mode they are freed wholesale on epoch advance, wrappers and all.
type QSense struct {
	epochDomain
	fallback atomic.Bool
	recs     *arena[*hprec]
	guards   *arena[*qsenseGuard]
}

type qsenseGuard struct {
	epochMember
	d   *QSense
	rec *hprec
	// presence is the §5.2 switch-back flag, set every Q-th Begin and
	// cleared by the rooster's periodic reset. It lives on the guard (not
	// a separate fixed array) so it grows with the elastic arena.
	presence  atomic.Bool
	calls     int
	sinceScan int
	prevFall  bool // prev_seen_fallback_flag
	scanBuf   []uint64
	_         [40]byte // keep hot fields of adjacent guards apart
}

// NewQSense builds the hybrid domain and starts its rooster manager (unless
// Config.ManualRooster). A non-zero Config.C below LegalC is rejected,
// since Property 4's 2NC bound needs a legal threshold; once the arena
// grows past the initial Workers, the tuner keeps enforcing the bound
// against the live worker count by raising the effective C as needed.
func NewQSense(cfg Config) (*QSense, error) {
	d := &QSense{}
	if err := d.init(nameQSense, cfg, true); err != nil {
		return nil, err
	}
	if legal := LegalC(d.cfg); d.cfg.C < legal {
		return nil, fmt.Errorf("reclaim: C=%d is not legal (need >= %d; see §6.2)", d.cfg.C, legal)
	}
	d.tune = newTuner(d.cfg, &d.cnt)
	d.mgr = rooster.NewManager(d.cfg.Rooster)
	d.peer = func(i int) *epochMember { return &d.guards.at(i).epochMember }
	d.extraStats = func(s *Stats) { s.InFallback = d.fallback.Load() }
	d.mgr.AddHook(presenceResetTicks, d.resetPresence)
	// A QSense orphan batch carries both evidence forms; the rooster's
	// adoption hook uses the deferred-scan one, which works on either path
	// — in particular in fallback mode, where the frozen epoch never
	// matures the other.
	d.recs, d.guards = openHazardGuards(&d.domainCore, func(rec *hprec) *qsenseGuard {
		g := &qsenseGuard{d: d, rec: rec}
		g.epochMember.init(&d.epochDomain)
		return g
	})
	d.startRooster()
	return d, nil
}

// presenceResetTicks is how many rooster passes elapse between presence
// resets (§5.2, step 3): 100 ms at the default 2 ms interval. The period
// must comfortably exceed a scheduler timeslice: with more workers than
// cores, a healthy worker can sit descheduled for tens of milliseconds, and
// a shorter period would read that as "not all processes are active" and
// postpone the switch back to the fast path indefinitely.
const presenceResetTicks = 50

// resetPresence clears the presence flags of the occupied guards every
// presenceResetTicks passes (§5.2, step 3). Vacant guards' flags are
// irrelevant — allActive skips inactive workers — and a stale flag on a
// parked segment's guard is cleared by the join path when the slot ever
// leases again.
func (d *QSense) resetPresence() {
	n := d.slots.walkOccupied(func(i int) bool {
		d.guards.at(i).presence.Store(false)
		return true
	})
	d.cnt.scanned.Add(uint64(n))
}

// allActive reports whether every participating worker has signalled
// presence since the last reset, walking only occupied slots (a vacant
// slot's membership is inactive, so the full-arena walk never learned more).
// Workers that left or were evicted do not count, and with EvictAfter set
// the scan itself evicts workers silent for too long — this is what lets
// QSense abandon the fallback path after a permanent crash (the §5.2
// limitation this extension removes). Eviction must happen here as well as
// in the epoch check: on the fallback path nobody declares quiescent
// states, so the epoch check never runs.
func (d *QSense) allActive() bool {
	all := true
	n := d.slots.walkOccupied(func(i int) bool {
		g := d.guards.at(i)
		if g.mem.skipOrEvict(d.cfg.EvictAfter, &d.cnt.evictions) {
			return true
		}
		if !g.presence.Load() {
			all = false
			return false
		}
		return true
	})
	d.cnt.scanned.Add(uint64(n))
	return all
}

// join: drain any stale hazard state the previous tenant's release raced,
// join the epoch protocol (adopting the global epoch and freeing aged-out
// limbo), and — on the fast path — declare the lease itself as a quiescent
// state so epochs keep rotating even when every goroutine is too
// short-lived to reach a Q-th Begin.
func (g *qsenseGuard) join() {
	g.rec.reset()
	g.presence.Store(false) // never inherit a previous tenant's liveness claim
	g.activate()
	g.tc.refresh(g.d.tune)
	if !g.d.fallback.Load() {
		g.quiescent()
	}
}

// drain: drop the guard's hazard pointers, declare a final quiescent state
// (the caller holds no references, per the Release contract), run a Cadence
// scan over the remaining limbo so everything provably safe frees now, move
// what survives to the orphan list — the batch carries both evidence forms,
// so fast-path quiescent states (epoch) and fallback/rooster scans (tick +
// HP) can both adopt it — then Leave.
func (g *qsenseGuard) drain() {
	g.rec.reset()
	if !g.d.fallback.Load() {
		g.quiescent()
	}
	if g.total > 0 {
		g.scanAll()
	}
	g.orphan(&g.d.orphans, g.d.epoch.Load(), &g.d.cnt)
	g.Leave()
}

func (g *qsenseGuard) closeFree() { g.freeBuckets() }

// Leave implements Leaver: the epoch member leaves, with no protection held
// (asserted in qsensedebug builds, debug_on.go).
func (g *qsenseGuard) Leave() {
	assertUnprotected(g.rec)
	g.epochMember.Leave()
}

// InFallback reports whether the domain currently runs the fallback path.
func (d *QSense) InFallback() bool { return d.fallback.Load() }

// Rooster exposes the manager so tests can drive passes deterministically.
func (d *QSense) Rooster() *rooster.Manager { return d.mgr }

// Begin is manage_qsense_state (Algorithm 5, lines 12–34).
func (g *qsenseGuard) Begin() {
	g.calls++
	if g.calls%g.d.cfg.Q != 0 {
		return
	}
	// Fault point: stalled here the worker neither quiesces nor signals
	// presence — the hybrid's discriminating case: the fast path freezes,
	// the fallback trigger fires, and (with EvictAfter) the stalled worker
	// is eventually evicted so the fast path can resume.
	g.d.cfg.fire(FaultQuiesce, g.id)
	// Signal that this worker is active (presence for the switch-back
	// protocol, the liveness stamp for the eviction clock — fallback-path
	// workers never quiesce but are very much alive).
	g.presence.Store(true)
	g.mem.stampQuiesce()
	if !g.d.fallback.Load() {
		// Common case: run the fast path.
		g.quiescent()
		g.prevFall = false
		return
	}
	// Fallback: try to switch back to the fast path.
	if g.d.allActive() && g.d.fallback.CompareAndSwap(true, false) {
		g.d.cnt.toFast.Add(1)
		g.prevFall = false
		g.quiescent()
		return
	}
	g.prevFall = true
}

// Protect publishes fence-free, exactly as in Cadence; the hazard pointers
// must be maintained even on the fast path (§4.1).
func (g *qsenseGuard) Protect(i int, r mem.Ref) {
	g.rec.publishPending(i, r)
	// Fault point: stalled after publication, the reader pins exactly the
	// K nodes its pending slots name (flushed by the rooster) — never more.
	g.d.cfg.fire(FaultProtect, g.id)
}

func (g *qsenseGuard) ClearHPs() { g.rec.deactivate(&g.rec.pendingActive) }

// Retire is free_node_later (Algorithm 5, lines 36–61).
func (g *qsenseGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("reclaim: retire of nil Ref")
	}
	g.d.mgr.Poll() // cooperative rooster: run an overdue pass inline
	// Create the timestamped wrapper and add it to the current epoch's
	// limbo list — always, whatever the current path.
	g.retire(retired{ref: r.Untagged(), stamp: g.d.mgr.Tick()})
	g.sinceScan++

	seen := g.d.fallback.Load()
	switch {
	case seen && g.sinceScan >= g.tc.r:
		// Running in fallback mode: scan all three epochs' limbo lists.
		g.scanAll()
		g.prevFall = true
	case g.prevFall && !seen:
		// Switch back to QSBR mode was triggered by another worker.
		//
		// Deliberate deviation from Algorithm 5 (lines 49-52), which
		// declares a quiescent state right here. free_node_later runs
		// where free() would — typically mid-operation, while this
		// worker still holds hazardous references (the list's
		// search_and_cleanup retires nodes mid-traversal). Declaring
		// quiescence at such a point tells peers "I hold no
		// references", and one epoch advance later their *wholesale*
		// frees — which do not consult hazard pointers — can reclaim
		// nodes this worker is still using. (Our stress harness
		// caught exactly that as a use-after-free fault.) We only
		// note the edge; the next Begin, a reference-free point by
		// contract, performs the quiescent state.
		g.prevFall = false
	case !seen && !g.prevFall && g.total >= g.tc.c:
		// Quiescence has not been possible for a long time: trigger
		// the switch to the fallback path.
		if g.d.fallback.CompareAndSwap(false, true) {
			g.d.cnt.toFall.Add(1)
		}
		g.prevFall = true
		g.scanAll()
	}
}

// scanAll runs the Cadence scan over all three limbo buckets with one
// snapshot, then adopts orphans against the same snapshot. Tick capture and
// the orphan detach precede the snapshot (see hazardGuard.scan).
func (g *qsenseGuard) scanAll() {
	d := g.d
	d.cnt.scans.Add(1)
	g.sinceScan = 0
	tick := d.scanTick()
	orphans := d.orphans.detach()
	snap, visited := snapshotShared(d.slots, d.recs, g.scanBuf)
	d.cnt.tallyScanned(&g.tally, visited)
	g.scanBuf = snap.vals
	canFree := func(n retired) bool { return oldAndFree(tick, &snap, n) }
	g.total = 0
	freed := 0
	for b := range g.buckets {
		var f int
		g.buckets[b], f = sweep(d.cfg.Free, g.buckets[b], canFree)
		g.total += len(g.buckets[b])
		freed += f
	}
	d.cnt.tallyFree(&g.tally, freed)
	d.orphans.adopt(orphans, d.cfg.Free, &d.cnt, func(_ uint64, n retired) bool { return canFree(n) })
	g.finishPass()
}
