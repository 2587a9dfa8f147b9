package reclaim

import (
	"sync/atomic"

	"qsense/internal/mem"
)

// IBR is interval-based reclamation in the 2GEIBR style (Wen et al., via
// Singh's SMR survey — PAPERS.md): the first post-paper scheme family, next
// to Hyaline. Every node carries a birth era (stamped by mem.Pool at Alloc,
// read back through Config.Era) and a retire era (stamped here at Retire),
// so its lifetime is the closed interval [birth, retire]. Every guard
// publishes a reservation interval [lower, upper]: Begin resets it to the
// current era, and each Protect widens upper to the era of the access. A
// scan frees exactly the retired nodes whose lifetime interval misses every
// active reservation.
//
// The robustness trade: like the epoch schemes, readers pay no per-pointer
// fence — Protect is one owner-only load/store pair, not HP's fenced
// publication — but unlike them, a stalled reader pins only the eras its
// reservation spans. Nodes born after the straggler's upper bound reclaim
// freely, so a delayed process bounds garbage by its own reservation width
// instead of blocking reclamation globally (the property Stats reports as
// IBRIntervalWidth). The safety argument is Michael-shaped, not fence-
// shaped: a reader widens upper BEFORE dereferencing and re-validates the
// source link after Protect, so a node it can still reach has a lifetime
// intersecting its reservation; a node unlinked before the reader's Begin
// is unreachable from the root, and the substrate's generation tags plus
// link re-validation reject anything freed mid-traversal. This is why IBR
// needs its structures to tolerate transient access to retired nodes —
// every container here does, as its traversal re-validates each link.
//
// The era clock advances every eraQ retires — an ADAPTIVE cadence seeded
// from Config.Q (the 2GEIBR epochFreq knob) and steered by the observed
// reservation width: when a scan sees a reservation spanning more than
// ibrWidthTarget eras, the cadence tightens (eraQ halves, floored at
// max(1, Q/4)) so the birth clock outruns the wide interval — freshly
// allocated nodes are born PAST a straggler's frozen upper bound and
// reclaim without waiting on it, which is the whole robustness claim.
// When every reservation is narrow the cadence relaxes (eraQ doubles,
// capped at Q*16) to shed the clock-advance traffic an over-eager era
// costs on the fast path. The inverse policy — slowing the clock under a
// wide reservation — would be exactly wrong: with the era frozen, every
// new birth stays <= the straggler's upper and is covered forever. The
// clock also advances on orphan-draining Begins; scans run every R retires
// (retuned with occupancy like the pointer schemes). With a nil Config.Era
// the domain falls back to an internal clock whose nodes are all born at
// era 0 — safe but epoch-equivalent (see EraSource); the public layer
// wires each container's pool clock so real interval reclamation engages.
type IBR struct {
	domainCore
	era    EraSource
	guards *arena[*ibrGuard]
	// eraQ is the adaptive retires-per-era-advance cadence (see the type
	// comment); eraQFloor/eraQCap bound it. Plain Store races between
	// concurrent scanners are benign — every written value is in range.
	eraQ               atomic.Int64
	eraQFloor, eraQCap int64
}

// ibrWidthTarget is the reservation width (in eras) the cadence controller
// steers toward: wider observed reservations tighten eraQ, reservations at
// most one era wide relax it. Between the two bounds the cadence holds —
// the hysteresis band that keeps the controller from oscillating.
const ibrWidthTarget = 4

// resInactive is the lower-bound sentinel of an inactive reservation:
// lower > upper encodes "no reservation", and MaxUint64 keeps every
// comparison against a real era false without a separate flag word.
const resInactive = ^uint64(0)

type ibrGuard struct {
	guardCore
	d *IBR
	// lower/upper are the published reservation. The owner writes them
	// (Begin, Protect, ClearHPs); scanning peers read them. Torn reads are
	// conservative by construction: lower only moves while the owner holds
	// no references (Begin/ClearHPs), and upper's single-word widening can
	// only be missed by a scan that ordered before the access it covers —
	// the re-validation argument in the type comment absorbs that case.
	lower     atomic.Uint64
	upper     atomic.Uint64
	lastSeen  uint64 // last era whose flush this guard performed (Begin)
	adoptSeen uint64 // last era at which this guard swept the orphan list
	rl        []retired
	sinceEra  int // retires since the last era advance (Q cadence)
	sinceScan int // retires since the last scan (R cadence)
	resBuf    []eraInterval
	_         [40]byte // keep adjacent guards' hot words apart
}

// localEra is the nil-Config.Era fallback clock: a domain-private era with
// every node's birth pinned at 0. Safe (nothing frees early) but unable to
// reclaim past a stalled reader — wiring the pool clock restores that.
type localEra struct{ e atomic.Uint64 }

func (l *localEra) Era() uint64             { return l.e.Load() }
func (l *localEra) AdvanceEra() uint64      { return l.e.Add(1) }
func (l *localEra) BirthEra(mem.Ref) uint64 { return 0 }

// NewIBR builds an interval-based reclamation domain. Guards are born with
// an inactive reservation, so pinning needs no membership work.
func NewIBR(cfg Config) (*IBR, error) {
	d := &IBR{}
	if err := d.init(nameIBR, cfg, true); err != nil {
		return nil, err
	}
	if d.era = d.cfg.Era; d.era == nil {
		d.era = &localEra{}
	}
	d.eraQFloor = max(1, int64(d.cfg.Q/4))
	d.eraQCap = int64(d.cfg.Q) * 16
	d.eraQ.Store(int64(d.cfg.Q))
	d.tune = newTuner(d.cfg, &d.cnt)
	d.extraStats = d.widthStats
	d.guards = openGuards(&d.domainCore, nil, func(int) *ibrGuard {
		g := &ibrGuard{d: d}
		g.lower.Store(resInactive) // zero value would reserve [0,0] forever
		return g
	})
	return d, nil
}

// join catches a leased slot up: under a standing orphan backlog, advance
// the era (handle churn must be an adoption driver, like EBR's Acquire
// advance) and sweep once per new era.
func (g *ibrGuard) join() {
	d := g.d
	if !d.orphans.empty() {
		e := d.advanceEra()
		if e != g.adoptSeen {
			g.adoptSeen = e
			g.scan()
		}
	}
	d.cnt.flushTally(&g.tally, d.cfg.MemoryLimit)
	g.tc.refresh(d.tune)
}

// drain: deactivate the reservation and move the whole remaining retire
// list to the orphan list as one batch — per-node [birth, retire] evidence
// travels with the batch, so any worker's later scan adopts whatever the
// then-active reservations miss.
func (g *ibrGuard) drain() {
	g.ClearHPs()
	if len(g.rl) > 0 {
		g.d.orphans.add(g.rl, g.d.era.Era(), &g.d.cnt)
		g.rl = nil
	}
}

func (g *ibrGuard) closeFree() {
	g.d.cnt.tallyFree(&g.tally, freeAll(g.d.cfg.Free, g.rl))
	g.rl = nil
}

// Era exposes the current era for tests.
func (d *IBR) Era() uint64 { return d.era.Era() }

// EraQ exposes the current adaptive era-advance cadence (retires per
// AdvanceEra) for tests and diagnostics.
func (d *IBR) EraQ() int { return int(d.eraQ.Load()) }

// retuneEraQ is the cadence controller, run once per scan against the
// reservation snapshot the scan already collected: tighten toward the floor
// while any reservation spans more than ibrWidthTarget eras, relax toward
// the cap while all are at most one era wide.
func (d *IBR) retuneEraQ(res []eraInterval) {
	var w uint64
	for _, iv := range res {
		if iv.hi-iv.lo > w {
			w = iv.hi - iv.lo
		}
	}
	q := d.eraQ.Load()
	switch {
	case w > ibrWidthTarget && q > d.eraQFloor:
		if q /= 2; q < d.eraQFloor {
			q = d.eraQFloor
		}
		d.eraQ.Store(q)
	case w <= 1 && q < d.eraQCap:
		if q *= 2; q > d.eraQCap {
			q = d.eraQCap
		}
		d.eraQ.Store(q)
	}
}

// widthStats fills IBRIntervalWidth: the widest active reservation
// (upper-lower) at snapshot time — how much era history the slowest current
// reader pins.
func (d *IBR) widthStats(s *Stats) {
	d.slots.walkOccupied(func(i int) bool {
		g := d.guards.at(i)
		if lo, hi := g.lower.Load(), g.upper.Load(); lo <= hi && hi-lo > s.IBRIntervalWidth {
			s.IBRIntervalWidth = hi - lo
		}
		return true
	})
}

func (d *IBR) advanceEra() uint64 {
	e := d.era.AdvanceEra()
	d.cnt.epochs.Add(1)
	return e
}

// Begin resets the reservation to [e, e] at the current era. Both stores
// complete before the operation's first load (SC atomics), and the guard
// holds no references at Begin, so the torn intermediate states a scanning
// peer can observe are all at-most-as-wide as a state the guard legally
// passed through. Under a standing orphan backlog, pure Begin activity must
// drive adoption — the era is advanced (reservation lower bounds of
// re-Beginning readers move past the orphans' retire stamps) and the lists
// swept at most once per new era.
func (g *ibrGuard) Begin() {
	e := g.d.era.Era()
	g.lower.Store(e)
	g.upper.Store(e)
	if !g.d.orphans.empty() {
		ne := g.d.advanceEra()
		if ne != g.adoptSeen {
			g.adoptSeen = ne
			g.scan()
		}
	}
}

// Protect widens the reservation's upper bound to the current era before
// the caller dereferences r — the per-read half of the interval argument
// (the caller's link re-validation after Protect is the other half). No
// fence, no per-pointer slot: one owner-only load/store pair. A nil r
// (slot-clear in the HP idiom) needs no widening.
func (g *ibrGuard) Protect(i int, r mem.Ref) {
	if r.IsNil() {
		return
	}
	if e := g.d.era.Era(); e > g.upper.Load() {
		g.upper.Store(e)
	}
	// Fault point: stalled with the reservation held, the reader pins
	// only nodes whose lifetime intersects [lower, upper] — nodes born
	// after its upper bound reclaim freely past it.
	g.d.cfg.fire(FaultProtect, g.id)
}

// ClearHPs deactivates the reservation: the worker no longer pins any era
// while idle between operations. lower moves to the sentinel first so every
// torn read during the transition is inactive-or-narrower.
func (g *ibrGuard) ClearHPs() {
	g.lower.Store(resInactive)
	g.upper.Store(0)
}

// Retire stamps r with its lifetime interval — birth read back from the
// era source while the retirer still owns the node, retire era taken now —
// and banks it in the guard's retire list. Every eraQ retires advance the era
// (the 2GEIBR epochFreq cadence, made adaptive — see the type comment);
// every R retires run a scan.
func (g *ibrGuard) Retire(r mem.Ref) {
	if r.IsNil() {
		panic("reclaim: retire of nil Ref")
	}
	r = r.Untagged()
	g.rl = append(g.rl, retired{ref: r, stamp: g.d.era.Era(), birth: g.d.era.BirthEra(r)})
	g.d.cnt.tallyRetire(&g.tally, g.d.cfg.MemoryLimit)
	g.sinceEra++
	if g.sinceEra >= int(g.d.eraQ.Load()) {
		g.sinceEra = 0
		g.d.advanceEra()
	}
	g.sinceScan++
	if g.sinceScan >= g.tc.r {
		g.sinceScan = 0
		g.scan()
		g.tc.refresh(g.d.tune)
	}
}

// eraInterval is one guard's active reservation [lo, hi], in eras.
type eraInterval struct{ lo, hi uint64 }

// intervalMissesAll is ibr's free rule: node n's lifetime [birth, stamp] is
// disjoint from every reservation in res.
func intervalMissesAll(res []eraInterval, n retired) bool {
	for _, r := range res {
		if n.birth <= r.hi && n.stamp >= r.lo {
			return false
		}
	}
	return true
}

// collect snapshots every occupied slot's active reservation. The caller
// must have detached any orphan chains it will judge BEFORE calling (the
// detach-before-snapshot order of orphan.go: a node entering the judged set
// after the collection could be covered by a reservation published after
// its slot was read).
func (g *ibrGuard) collect() []eraInterval {
	res := g.resBuf[:0]
	visited := g.d.slots.walkOccupied(func(i int) bool {
		p := g.d.guards.at(i)
		if lo, hi := p.lower.Load(), p.upper.Load(); lo <= hi {
			res = append(res, eraInterval{lo, hi})
		}
		return true
	})
	g.d.cnt.tallyScanned(&g.tally, visited)
	g.resBuf = res
	return res
}

// scan is IBR's reclamation pass: detach the orphan chain, snapshot the
// active reservations, free every retired node whose lifetime misses all of
// them, then run the same rule over the detached orphans (survivors go back
// on the list).
func (g *ibrGuard) scan() {
	d := g.d
	orphans := d.orphans.detach()
	res := g.collect()
	d.cnt.scans.Add(1)
	d.retuneEraQ(res)
	canFree := func(n retired) bool { return intervalMissesAll(res, n) }
	var freed int
	g.rl, freed = sweep(d.cfg.Free, g.rl, canFree)
	d.cnt.tallyFree(&g.tally, freed)
	d.orphans.adopt(orphans, d.cfg.Free, &d.cnt, func(_ uint64, n retired) bool { return canFree(n) })
	d.cnt.flushTally(&g.tally, d.cfg.MemoryLimit)
}
