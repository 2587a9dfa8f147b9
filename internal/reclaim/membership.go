package reclaim

// Dynamic membership and eviction — the paper's §5.2 future work, built out.
//
// The paper notes two limitations of QSense as published: processes cannot
// join or leave while the system runs, and "if a process crashes and never
// recovers, QSense will switch to fallback mode and stay there forever". It
// sketches the fix — "mechanisms for processes to announce entering or
// leaving the system and for evicting participating processes that have not
// quiesced in a long time" — and leaves it open. This file implements that
// sketch for the two epoch-based schemes (QSBR and QSense), which are the
// ones a silent worker can block; HP and Cadence are per-node schemes and
// never wait on anybody.
//
// Leaving. A worker that will be idle for a while (blocking I/O, waiting on
// a queue) calls Leave *from a quiescent point* — holding no references to
// shared nodes, exactly the contract of Begin. An inactive worker is skipped
// by the grace-period check (epoch advances no longer wait for it) and by
// QSense's presence scan (the fast path can resume without it).
//
// Joining. Join re-enters the protocol: the guard adopts the current global
// epoch and, if at least three epochs elapsed while it was away, its limbo
// buckets have all passed full grace periods with respect to every worker
// that could have held references (the other workers advanced those epochs;
// the owner itself held nothing while away) and are freed wholesale. Join
// is the same quiet re-entry a lease makes (activate): an announced return
// is not counted, so a server can Leave before every blocking socket read
// and Join after it. On an active worker Join is a no-op.
//
// Eviction. With Config.EvictAfter > 0, a worker attempting an epoch
// advance treats any peer that has not declared a quiescent state for that
// long as crashed and marks it inactive. SAFETY ASSUMPTION (inherited from
// the paper's sketch): an evicted worker performs no further shared-memory
// accesses until it rejoins — eviction models *crash*, not mere slowness.
// For merely-slow workers leave eviction disabled; QSense's fallback path
// already keeps memory bounded without it. A worker that was evicted and
// comes back alive notices at its next quiescent state and recovers there
// (rejoin). Stats.Rejoins counts those recoveries and nothing else: an
// evicted worker, or one that operated after Leave without Join.

import (
	"sync/atomic"
	"time"

	"qsense/internal/mem"
)

// Leaver is implemented by guards of the epoch-based schemes (QSBR,
// QSense). Callers that park workers for long stretches should Leave so
// reclamation proceeds without them, and Join before operating again.
type Leaver interface {
	// Leave removes this worker from grace-period accounting. Call only
	// from a quiescent point: no references to shared nodes held.
	Leave()
	// Join re-enters the protocol quietly (no Stats.Rejoins count);
	// returns with the worker current. A no-op on an active worker.
	Join()
}

// membership is the per-member liveness state.
type membership struct {
	active      atomic.Bool
	lastQuiesce atomic.Int64 // unix nanos of the last quiescent state
	leftEpoch   uint64       // global epoch observed at Leave (owner-only)
}

// init prepares a slot that no worker owns yet: inactive, so an unleased
// slot never blocks grace periods or the presence scan. The slot becomes
// active when a worker leases it: Domain.Acquire's join step runs the
// member's activate path.
func (m *membership) init() {
	m.active.Store(false)
	m.lastQuiesce.Store(time.Now().UnixNano())
}

// stampQuiesce records liveness for the eviction clock.
func (m *membership) stampQuiesce() {
	m.lastQuiesce.Store(time.Now().UnixNano())
}

// skipOrEvict reports whether an advance check may skip this peer: inactive
// peers are skipped outright; with eviction enabled, a peer whose last
// quiescent state is older than evictAfter is marked inactive first.
func (m *membership) skipOrEvict(evictAfter time.Duration, evictions *atomic.Uint64) bool {
	if !m.active.Load() {
		return true
	}
	if evictAfter > 0 && time.Now().UnixNano()-m.lastQuiesce.Load() > int64(evictAfter) {
		if m.active.CompareAndSwap(true, false) {
			evictions.Add(1)
		}
		return true
	}
	return false
}

// epochDomain is the domain half of the QSBR protocol, shared by QSBR and
// QSense: the kernel plus the global epoch and a way to reach a peer's
// member through the scheme's concretely typed guard arena.
type epochDomain struct {
	domainCore
	epoch atomic.Uint64 // global epoch e_G
	peer  func(i int) *epochMember
}

// GlobalEpoch exposes the global epoch for tests.
func (d *epochDomain) GlobalEpoch() uint64 { return d.epoch.Load() }

// limbo is an epoch scheme's three retire buckets (qsbr, qsense, ebr): a
// node retired at epoch e waits in bucket e mod 3 until a grace period
// frees the whole bucket (the arithmetic is on epochMember.quiescent).
type limbo struct {
	buckets [3][]retired
	total   int // nodes across the three buckets
}

func (l *limbo) put(e uint64, n retired) {
	b := &l.buckets[e%3]
	*b = append(*b, n)
	l.total++
}

// free frees bucket b wholesale and reports how many nodes it held.
func (l *limbo) free(b int, free func(mem.Ref)) int {
	n := freeAll(free, l.buckets[b])
	l.buckets[b] = l.buckets[b][:0]
	l.total -= n
	return n
}

// orphan moves all three buckets onto the orphan list as one batch stamped
// with epoch, the release drain of every epoch scheme. The batch owns the
// buckets' arrays, so the buckets are dropped, not reused.
func (l *limbo) orphan(list *orphanList, epoch uint64, cnt *counters) {
	if l.total == 0 {
		return
	}
	var nodes []retired
	for b := range l.buckets {
		if len(l.buckets[b]) == 0 {
			continue
		}
		if nodes == nil {
			nodes = l.buckets[b]
		} else {
			nodes = append(nodes, l.buckets[b]...)
		}
		l.buckets[b] = nil
	}
	l.total = 0
	list.add(nodes, epoch, cnt)
}

// epochMember is one worker's half of the QSBR protocol — local epoch,
// limbo, membership, quiescent states, Leave/Join — embedded by qsbrGuard
// and qsenseGuard.
type epochMember struct {
	adoptSeen uint64 // last epoch at which this member tried orphan adoption
	mem       membership
	ed        *epochDomain
	limbo
	local     atomic.Uint64 // local epoch, read by peers in the advance check
	guardCore               // last: id next to the guard's own first fields
}

var _ Leaver = (*epochMember)(nil)

// init wires the member to its domain; the member starts inactive.
func (m *epochMember) init(d *epochDomain) {
	m.ed = d
	m.mem.init()
}

// retire banks n in the bucket of the member's local epoch.
func (m *epochMember) retire(n retired) {
	m.put(m.local.Load(), n)
	m.ed.cnt.tallyRetire(&m.tally, m.ed.cfg.MemoryLimit)
}

// freeBucket frees limbo bucket b wholesale, on the member's tally.
func (m *epochMember) freeBucket(b int) {
	m.ed.cnt.tallyFree(&m.tally, m.free(b, m.ed.cfg.Free))
}

// freeBuckets frees all three buckets: every one has passed a grace period
// (adopt's three-epoch bound, or Close with every worker stopped).
func (m *epochMember) freeBuckets() {
	for b := range m.buckets {
		m.freeBucket(b)
	}
}

// Leave implements Leaver.
func (m *epochMember) Leave() {
	m.mem.leftEpoch = m.ed.epoch.Load()
	m.mem.active.Store(false)
}

// Join implements Leaver.
func (m *epochMember) Join() { m.activate() }

// activate is the quiet join, used when a worker leases an inactive slot
// and by Join: adopt the global epoch, free limbo buckets that aged out
// while the member was inactive, and start participating. It counts no
// Rejoin — claiming a slot is lease bookkeeping (Stats.AcquiredHandles)
// and a return from Leave is announced, neither is crash recovery. adopt
// runs only on the false->true transition, so it never resets a live
// worker's epoch.
func (m *epochMember) activate() {
	if m.mem.active.CompareAndSwap(false, true) {
		m.adopt()
	}
}

// adopt catches the member up with the protocol: adopt the current global
// epoch and free buckets that aged out while the worker was away (three
// epoch advances prove full grace periods for everything a previous tenant
// or the departed worker left in limbo). The tally flush keeps the shared
// counters exact at this pass boundary.
func (m *epochMember) adopt() {
	global := m.ed.epoch.Load()
	m.local.Store(global)
	m.mem.stampQuiesce()
	if global >= m.mem.leftEpoch+3 {
		m.freeBuckets()
		m.ed.cnt.flushTally(&m.tally, m.ed.cfg.MemoryLimit)
	}
}

// rejoin is adopt plus the Rejoins count — the recovery path of a worker
// that reaches a quiescent state while inactive (evicted, or operating
// after Leave without Join).
func (m *epochMember) rejoin() {
	m.adopt()
	m.ed.cnt.rejoins.Add(1)
}

// quiescent declares a quiescent state (§3.1).
//
// Epoch arithmetic. Retires go into bucket (local mod 3). A worker's local
// epoch can lag the global by one while it is between quiescent states, so a
// node in bucket e may have been retired while the global epoch was already
// e+1 — and a reader whose critical section began at global epoch e+1 can
// hold a reference to it. The global reaching e+2 therefore does NOT prove a
// grace period for bucket e (such a reader pins the global at <= e+2 without
// quiescing). The global reaching e+3 does: it requires every worker to have
// adopted e+2 at a quiescent state, after which no critical section with
// epoch <= e+1 survives. Hence: on adopting epoch g, free bucket (g mod 3) —
// whose contents were retired at epoch g-3 — just before refilling it.
func (m *epochMember) quiescent() {
	d := m.ed
	if !m.mem.active.Load() {
		// Evicted (or left without Join) and now back: recover.
		m.rejoin()
		m.mem.active.Store(true)
	}
	m.mem.stampQuiesce()
	d.slots.quiesce.Add(1)
	global := d.epoch.Load()
	// Orphan adoption, at most once per epoch advance: batch maturity only
	// changes when the epoch does, so retrying within one epoch would just
	// churn the shared list head. The rule is this method's own: a batch
	// stamped at epoch e has had a full grace period once the global epoch
	// reaches e+3.
	if global != m.adoptSeen && !d.orphans.empty() {
		m.adoptSeen = global
		d.orphans.adopt(d.orphans.detach(), d.cfg.Free, &d.cnt, func(e uint64, _ retired) bool { return global >= e+3 })
	}
	if m.local.Load() != global {
		m.local.Store(global)
		m.freeBucket(int(global % 3))
		m.finishPass()
		return
	}
	// Already current: try to advance the global epoch. Only OCCUPIED
	// slots are walked (vacant guards are inactive by construction, so
	// skipping them changes no outcome — occupancy.go); inactive peers
	// are skipped; stale peers are evicted first when enabled. A tenant
	// whose lease races this walk joined quiescent at the current epoch or
	// later, which cannot invalidate the grace period — the same argument
	// arena.go makes for slots published after a bound load.
	ok := true
	visited := d.slots.walkOccupied(func(i int) bool {
		if i == m.id {
			return true
		}
		peer := d.peer(i)
		if peer.mem.skipOrEvict(d.cfg.EvictAfter, &d.cnt.evictions) {
			return true
		}
		if peer.local.Load() != global {
			ok = false
			return false
		}
		return true
	})
	d.cnt.tallyScanned(&m.tally, visited)
	if ok && d.epoch.CompareAndSwap(global, global+1) {
		d.cnt.epochs.Add(1)
		// Adopt immediately so a solitary worker still reclaims.
		m.local.Store(global + 1)
		m.freeBucket(int((global + 1) % 3))
	}
	m.finishPass()
}

// finishPass closes a reclamation pass: the tally flushes (shared counters
// exact again) and the cached thresholds refresh if a capacity transition
// re-tuned them.
func (m *epochMember) finishPass() {
	m.ed.cnt.flushTally(&m.tally, m.ed.cfg.MemoryLimit)
	m.tc.refresh(m.ed.tune)
}
