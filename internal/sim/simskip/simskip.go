// Package simskip drives the skip list's upper-level linking window on
// the TSO machine simulator (internal/sim): one upper level around the
// two-inserter/one-deleter schedule of the historical hp/rc
// use-after-free (internal/skiplist's package doc, "historical violation
// of invariant 2"), with node words in simulated memory so a stale
// dereference raises *mem.Violation — the simulator's segmentation fault.
//
// internal/tso's SkipList litmus systems explore the same schedule
// exhaustively over hand-written straight-line programs; this package
// complements them with the real control flow — claim loops, link
// retries, helping deleters, a searcher following the full
// protect/validate discipline — executed deterministically in virtual
// time. A seed sweep replaces exhaustive exploration: under the stale
// pre-store protocol some seeds reach the violation, under
// claim-then-link none may, and the forced schedule (the marker always
// beating the inserter's claim) must take the abandon path — the mark
// observed during a claim means the level is permanently dead and the
// node is never published there.
//
// It guards that one proof — claim-then-link is safe where the stale
// pre-store was not — and is not a measurement tool.
package simskip

import (
	"qsense/internal/mem"
	"qsense/internal/sim"
	"qsense/internal/sim/simmem"
)

// Protocol selects the upper-level linking protocol under test.
type Protocol int

const (
	// StaleLink is the pre-fix protocol: the node's own next word was
	// pre-stored by the level-0 search and the mark check is a separate
	// load before the link CAS, which uses the freshly searched
	// successor — the own word is never re-claimed.
	StaleLink Protocol = iota
	// ClaimLink is the fixed protocol: each link attempt first claims
	// the own word (CAS from its previous value to the freshly searched
	// successor; a mark fails the claim and kills the level), then links
	// from that same successor.
	ClaimLink
)

// Config parameterizes one run.
type Config struct {
	Protocol Protocol
	// Seed drives the machine's deterministic jitter and the per-proc
	// phase offsets; a sweep over seeds covers the interleaving space.
	Seed uint64
	// ForceMarkFirst pins the schedule instead of randomizing it: the
	// marker runs immediately and the inserter starts late, so a
	// ClaimLink inserter must observe the mark during its claim and take
	// the abandon path in every run — the forced insert-retry schedule.
	ForceMarkFirst bool
}

// Result reports what one run did.
type Result struct {
	// Errs are the per-proc errors; a *mem.Violation inside is the
	// use-after-free (a proc dereferenced a freed node).
	Errs []error
	// Linked reports the inserter published M at the upper level.
	Linked bool
	// Abandoned reports the inserter observed the deletion mark during
	// its claim (or mark check) and gave the level up.
	Abandoned bool
	// FinalEdgeP is the predecessor edge after the run (host view) and M
	// the inserted node's ref, so tests can assert an abandoned node was
	// never published.
	FinalEdgeP, M mem.Ref
	// SOldFreed reports the deleter reclaimed S_old during the run.
	SOldFreed bool
}

const (
	fNext   = 0
	markBit = 1
)

func isMarked(w uint64) bool { return w&markBit != 0 }

// Run executes the scenario once. Shared state: predecessor P with chain
// P -> S_old -> S_new at the modeled level; the inserter links M behind P,
// S_old's deleter splices and frees S_old, M's deleter marks M's word, and
// a searcher (the second inserter's positioning search) walks the edge
// with full hazard pointer discipline — protect, fence, revalidate the
// edge the ref was read from (the clean predecessor edge for a frozen
// word), only then dereference.
func Run(cfg Config) Result {
	m := sim.New(sim.Config{Procs: 4, Seed: cfg.Seed})
	pool := simmem.NewPool(m, 8, 1, "simskip")
	hpCell := m.Reserve(1) // the searcher's hazard pointer slot

	P := pool.AllocHost()
	sOld := pool.AllocHost()
	sNew := pool.AllocHost()
	M := pool.AllocHost()
	pool.PokeField(P, fNext, uint64(sOld))
	pool.PokeField(sOld, fNext, uint64(sNew))
	pool.PokeField(sNew, fNext, 0)
	if cfg.Protocol == StaleLink {
		pool.PokeField(M, fNext, uint64(sOld)) // the level-0 search's pre-store
	} else {
		pool.PokeField(M, fNext, 0) // meaningful only from the claim on
	}

	var res Result
	phase := func(p *sim.Proc, span uint64) {
		if span > 0 {
			p.Sleep(p.Rand() % span)
		}
	}

	// Proc 0: the searcher.
	m.Spawn(0, func(p *sim.Proc) {
		searcherSpan := uint64(6000)
		if cfg.ForceMarkFirst {
			searcherSpan = 0
		}
		phase(p, searcherSpan)
		w := pool.Load(p, P, fNext) // P is immortal; its word is never marked
		r := mem.Ref(w).Untagged()
		if r != M {
			if r == sNew {
				return // fresh chain: nothing to check
			}
			// Walking into S_old: protect, revalidate the edge it was
			// read from, dereference.
			p.Store(hpCell, uint64(r))
			p.Fence()
			if pool.Load(p, P, fNext) != w {
				return
			}
			pool.Load(p, r, fNext)
			return
		}
		mw := pool.Load(p, M, fNext) // M is immortal in this scenario
		tgt := mem.Ref(mw).Untagged()
		if tgt.IsNil() {
			return
		}
		p.Store(hpCell, uint64(tgt))
		p.Fence()
		if !isMarked(mw) {
			// Clean word: revalidate it, then walk into the successor.
			if pool.Load(p, M, fNext) != mw {
				return
			}
			pool.Load(p, tgt, fNext)
			return
		}
		// Frozen word: revalidate the CLEAN edge to M, splice, and only
		// then touch the installed successor — internal/skiplist's
		// splice path exactly.
		if pool.Load(p, P, fNext) != w {
			return
		}
		if _, ok := pool.CAS(p, P, fNext, uint64(M), uint64(tgt)); ok {
			pool.Load(p, tgt, fNext)
		}
	})

	// Proc 1: S_old's deleter — cleanup walk, hazard scan, free.
	m.Spawn(1, func(p *sim.Proc) {
		deleterSpan := uint64(3000)
		if cfg.ForceMarkFirst {
			deleterSpan = 0
		}
		phase(p, deleterSpan)
		unlinked := false
		for tries := 0; tries < 8 && !unlinked; tries++ {
			w := pool.Load(p, P, fNext)
			switch mem.Ref(w).Untagged() {
			case sOld:
				_, unlinked = pool.CAS(p, P, fNext, w, uint64(sNew))
			case sNew:
				unlinked = true // already out of the chain
			case M:
				mw := pool.Load(p, M, fNext)
				if mem.Ref(mw).Untagged() != sOld {
					unlinked = true // M routes past S_old
					break
				}
				if isMarked(mw) {
					// Frozen at S_old: the real cleanup splices M from
					// the clean edge first; S_old stays reachable and
					// must not be freed yet.
					return
				}
				_, unlinked = pool.CAS(p, M, fNext, mw, uint64(sNew))
			}
		}
		if !unlinked {
			return
		}
		if p.Load(hpCell) == uint64(sOld) {
			return // protected
		}
		pool.Free(p, sOld)
		res.SOldFreed = true
	})

	// Proc 2: M's inserter finishing the upper level.
	m.Spawn(2, func(p *sim.Proc) {
		switch {
		case cfg.ForceMarkFirst:
			p.Sleep(4000) // let the marker win every race
		default:
			phase(p, 4000)
		}
		for attempt := 0; attempt < 6; attempt++ {
			w := pool.Load(p, P, fNext) // the fresh search's successor
			succ := mem.Ref(w).Untagged()
			if succ != sOld && succ != sNew {
				return
			}
			if cfg.Protocol == StaleLink {
				mw := pool.Load(p, M, fNext) // the old separate mark check
				if isMarked(mw) {
					res.Abandoned = true
					return
				}
			} else {
				claimed := false
				for !claimed {
					mw := pool.Load(p, M, fNext)
					if isMarked(mw) {
						res.Abandoned = true // level permanently dead
						return
					}
					if mem.Ref(mw).Untagged() == succ {
						claimed = true
						break
					}
					_, claimed = pool.CAS(p, M, fNext, mw, uint64(succ))
				}
			}
			if _, ok := pool.CAS(p, P, fNext, uint64(succ), uint64(M)); ok {
				res.Linked = true
				return
			}
		}
	})

	// Proc 3: M's deleter marking the level (the top-down marking pass).
	m.Spawn(3, func(p *sim.Proc) {
		markerSpan := uint64(5000)
		if cfg.ForceMarkFirst {
			markerSpan = 0
		}
		phase(p, markerSpan)
		for {
			mw := pool.Load(p, M, fNext)
			if isMarked(mw) {
				return
			}
			if _, ok := pool.CAS(p, M, fNext, mw, mw|markBit); ok {
				return
			}
		}
	})

	res.Errs = m.Run()
	res.FinalEdgeP = mem.Ref(pool.PeekField(P, fNext)).Untagged()
	res.M = M
	return res
}
