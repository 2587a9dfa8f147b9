package reclaim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qsense/internal/mem"
)

func sleepMs(n int) { time.Sleep(time.Duration(n) * time.Millisecond) }

// tnode is a cache-line-sized test node carrying a self-checksum so stress
// tests detect reads of recycled memory even without a generation fault.
type tnode struct {
	val   uint64
	check uint64
	_     [48]byte
}

func checksum(v uint64) uint64 { return v*0x9e3779b97f4a7c15 + 1 }

func newTestPool() *mem.Pool[tnode] {
	return mem.NewPool[tnode](mem.Config{Name: "reclaim-test", Poison: true})
}

// freeInto returns a Config Free callback bound to pool.
func freeInto(p *mem.Pool[tnode]) func(mem.Ref) {
	return func(r mem.Ref) { p.Free(r) }
}

// allocNode allocates and stamps a node.
func allocNode(p *mem.Pool[tnode], v uint64) mem.Ref {
	r, n := p.Alloc()
	n.val = v
	n.check = checksum(v)
	return r
}

// acquire leases n guards from d, failing the test on error. A fresh domain
// hands out slot i to the i-th call (low indices are on top of the
// freelist); a test that needs a particular slot reads SlotIndex.
func acquire(t testing.TB, d Domain, n int) []Guard {
	t.Helper()
	gs := make([]Guard, n)
	for i := range gs {
		g, err := d.Acquire()
		if err != nil {
			t.Fatalf("acquire %d of %d: %v", i+1, n, err)
		}
		gs[i] = g
	}
	return gs
}

// corePools reaches the slot pool behind any scheme — the white-box handle
// for tests that assert occupancy and parking beyond what Stats reports.
func corePools(t *testing.T, d Domain) *slotPool {
	t.Helper()
	switch dd := d.(type) {
	case *None:
		return dd.slots
	case *QSBR:
		return dd.slots
	case *EBR:
		return dd.slots
	case *HP:
		return dd.slots
	case *Cadence:
		return dd.slots
	case *QSense:
		return dd.slots
	case *RC:
		return dd.slots
	case *IBR:
		return dd.slots
	case *Hyaline:
		return dd.slots
	}
	t.Fatalf("corePools: unknown domain type %T", d)
	return nil
}

// stepToPresenceReset steps d's rooster through the next pass that runs
// QSense's presence reset (every presenceResetTicks passes).
func stepToPresenceReset(d *QSense) {
	for {
		d.Rooster().Step()
		if d.Rooster().Tick()%presenceResetTicks == 0 {
			return
		}
	}
}

// mailbox is a tiny lock-free shared structure used by the cross-scheme
// conformance stress test: an array of slots holding node Refs. Workers
// publish fresh nodes and take others' nodes with the full HP discipline
// (read, Protect, re-validate, use, retire), so every scheme's
// protect/retire/scan machinery is exercised against real concurrency.
type mailbox struct {
	pool  *mem.Pool[tnode]
	slots []atomic.Uint64
}

func newMailbox(pool *mem.Pool[tnode], n int) *mailbox {
	return &mailbox{pool: pool, slots: make([]atomic.Uint64, n)}
}

// put swaps a new node into slot i and retires the displaced one.
func (m *mailbox) put(g Guard, i int, v uint64) {
	r := allocNode(m.pool, v)
	old := mem.Ref(m.slots[i].Swap(uint64(r)))
	if !old.IsNil() {
		g.Retire(old)
	}
}

// take reads slot i under hazard-pointer protection, verifies the node's
// checksum, and removes+retires it. Returns false if the slot was empty or
// contended away.
func (m *mailbox) take(g Guard, i int) bool {
	for attempt := 0; attempt < 4; attempt++ {
		r := mem.Ref(m.slots[i].Load())
		if r.IsNil() {
			return false
		}
		g.Protect(0, r)
		if mem.Ref(m.slots[i].Load()) != r {
			continue // link changed under us: retry per Michael's methodology
		}
		n := m.pool.Get(r)
		if checksum(n.val) != n.check {
			panic("mailbox: checksum mismatch — recycled memory read")
		}
		if m.slots[i].CompareAndSwap(uint64(r), 0) {
			g.Retire(r)
		}
		g.Protect(0, mem.Ref(0))
		return true
	}
	return false
}

// drain empties all slots (no protection needed once workers stopped).
func (m *mailbox) drain(g Guard) {
	for i := range m.slots {
		if r := mem.Ref(m.slots[i].Swap(0)); !r.IsNil() {
			g.Retire(r)
		}
	}
}

// runMailboxStress drives `workers` goroutines over a shared mailbox under
// the given domain and reports any safety violation.
func runMailboxStress(t *testing.T, pool *mem.Pool[tnode], d Domain, workers, iters int) {
	t.Helper()
	mb := newMailbox(pool, 64)
	gs := acquire(t, d, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if v, ok := r.(*mem.Violation); ok {
						errs <- v
						return
					}
					panic(r)
				}
			}()
			g := gs[id]
			rng := uint64(id)*0x9e3779b9 + 1
			for i := 0; i < iters; i++ {
				g.Begin()
				rng = rng*6364136223846793005 + 1442695040888963407
				slot := int(rng>>33) % len(mb.slots)
				if rng&1 == 0 {
					mb.put(g, slot, rng)
				} else {
					mb.take(g, slot)
				}
			}
			g.ClearHPs()
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("%s: safety violation under stress: %v", d.Name(), err)
	}
	// Cleanup: empty the mailbox through worker 0's guard, then close.
	mb.drain(gs[0])
	d.Close()
	st := d.Stats()
	if d.Name() != "none" {
		if st.Pending != 0 {
			t.Fatalf("%s: %d nodes still pending after Close", d.Name(), st.Pending)
		}
		if live := pool.Stats().Live; live != 0 {
			t.Fatalf("%s: %d nodes leaked", d.Name(), live)
		}
		if st.Freed == 0 {
			t.Fatalf("%s: scheme never freed anything", d.Name())
		}
	}
	if st.Retired == 0 {
		t.Fatalf("%s: stress produced no retires", d.Name())
	}
}
