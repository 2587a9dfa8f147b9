package reclaim

import (
	"testing"

	"qsense/internal/fence"
	"qsense/internal/mem"
)

func newHPDomain(t *testing.T, pool *mem.Pool[tnode], workers, k, r int) *HP {
	t.Helper()
	d, err := NewHP(Config{Workers: workers, HPs: k, Free: freeInto(pool), R: r})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestHPFenceModelIsOptIn: the zero Config — every default path — builds
// guards with no fence model at all, on the initial arena and on a grown
// segment alike; only an explicit FenceCost > 0 gives each guard its own.
func TestHPFenceModelIsOptIn(t *testing.T) {
	pool := newTestPool()
	for _, cost := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"zero value", Config{}, false},
		{"fence.DefaultCost", Config{FenceCost: fence.DefaultCost}, true},
	} {
		cfg := cost.cfg
		cfg.Workers, cfg.HPs, cfg.Free = 1, 1, freeInto(pool)
		d, err := NewHP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[*fence.Model]bool{}
		for _, g := range acquire(t, d, 3) { // 3 leases of 1 slot: the arena grows
			m := g.(*hpGuard).fence
			if (m != nil) != cost.want {
				t.Errorf("%s: guard %d carries model %v, want one: %v", cost.name, SlotIndex(g), m, cost.want)
			}
			if m != nil && (seen[m] || m.Cost() != fence.DefaultCost) {
				t.Errorf("%s: guard %d's model is shared or mis-sized (%v)", cost.name, SlotIndex(g), m.Cost())
			}
			seen[m] = true
		}
		d.Close()
	}
}

func TestHPScanFreesUnprotected(t *testing.T) {
	pool := newTestPool()
	d := newHPDomain(t, pool, 1, 2, 4)
	g := acquire(t, d, 1)[0]
	var refs []mem.Ref
	for i := 0; i < 4; i++ { // 4th retire triggers the scan (R=4)
		r := allocNode(pool, uint64(i))
		refs = append(refs, r)
		g.Retire(r)
	}
	for _, r := range refs {
		if pool.Valid(r) {
			t.Fatalf("unprotected %v survived a scan", r)
		}
	}
	if st := d.Stats(); st.Scans != 1 || st.Freed != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHPProtectedNodeSurvivesScan(t *testing.T) {
	pool := newTestPool()
	d := newHPDomain(t, pool, 2, 2, 4)
	gs := acquire(t, d, 2)
	victim, reader := gs[0], gs[1]
	r := allocNode(pool, 7)
	reader.Protect(0, r) // reader holds a hazardous reference
	victim.Retire(r)
	for i := 0; i < 16; i++ { // many scans
		victim.Retire(allocNode(pool, uint64(i)))
	}
	if !pool.Valid(r) {
		t.Fatal("protected node was freed")
	}
	if pool.Get(r).val != 7 {
		t.Fatal("protected node corrupted")
	}
	// Releasing the HP lets the next scan free it.
	reader.Protect(0, 0)
	for i := 0; i < 8; i++ {
		victim.Retire(allocNode(pool, uint64(i)))
	}
	if pool.Valid(r) {
		t.Fatal("released node not reclaimed")
	}
}

func TestHPOwnGuardProtectionRespected(t *testing.T) {
	// A guard's own hazard pointers must also pin nodes it retires.
	pool := newTestPool()
	d := newHPDomain(t, pool, 1, 2, 2)
	g := acquire(t, d, 1)[0]
	r := allocNode(pool, 1)
	g.Protect(1, r)
	g.Retire(r)
	for i := 0; i < 8; i++ {
		g.Retire(allocNode(pool, uint64(i)))
	}
	if !pool.Valid(r) {
		t.Fatal("own-protected node freed")
	}
	g.ClearHPs()
	for i := 0; i < 4; i++ {
		g.Retire(allocNode(pool, uint64(i)))
	}
	if pool.Valid(r) {
		t.Fatal("node survived after ClearHPs")
	}
}

func TestHPProtectTagBitsIgnored(t *testing.T) {
	// Data structures protect refs loaded from link words that may carry
	// mark bits; protection applies to the node regardless.
	pool := newTestPool()
	d := newHPDomain(t, pool, 1, 1, 2)
	g := acquire(t, d, 1)[0]
	r := allocNode(pool, 1)
	g.Protect(0, r.WithTag(1))
	g.Retire(r.WithTag(3)) // retire also strips tags
	for i := 0; i < 6; i++ {
		g.Retire(allocNode(pool, uint64(i)))
	}
	if !pool.Valid(r) {
		t.Fatal("tagged protection not honored")
	}
}

func TestHPScanThreshold(t *testing.T) {
	pool := newTestPool()
	d := newHPDomain(t, pool, 1, 1, 10)
	g := acquire(t, d, 1)[0]
	for i := 0; i < 9; i++ {
		g.Retire(allocNode(pool, uint64(i)))
	}
	if d.Stats().Scans != 0 {
		t.Fatal("scan ran before R retires")
	}
	g.Retire(allocNode(pool, 9))
	if d.Stats().Scans != 1 {
		t.Fatal("scan did not run at R retires")
	}
}

func TestHPBoundedPendingUnderStall(t *testing.T) {
	// The robustness property QSBR lacks: a stalled worker holding K
	// hazard pointers delays at most K nodes; everyone else's garbage
	// keeps flowing. Pending stays bounded by N*K + N*R slack.
	pool := newTestPool()
	const workers, k, r = 4, 2, 8
	d := newHPDomain(t, pool, workers, k, r)
	stalled := acquire(t, d, 1)[0]
	pinned := allocNode(pool, 99)
	stalled.Protect(0, pinned) // stalls forever holding a reference
	active := acquire(t, d, 1)[0]
	bound := int64(workers*k + workers*r)
	for i := 0; i < 10000; i++ {
		active.Retire(allocNode(pool, uint64(i)))
		if p := d.Stats().Pending; p > bound {
			t.Fatalf("pending %d exceeded robust bound %d at iter %d", p, bound, i)
		}
	}
	if !pool.Valid(pinned) {
		t.Fatal("stalled worker's protected node freed — wait-freedom broken the wrong way")
	}
	d.Close()
}

func TestHPBeginIsCheap(t *testing.T) {
	// HP has no quiescent machinery; Begin must not allocate or count.
	pool := newTestPool()
	d := newHPDomain(t, pool, 1, 1, 4)
	g := acquire(t, d, 1)[0]
	allocs := testing.AllocsPerRun(100, func() { g.Begin() })
	if allocs != 0 {
		t.Fatalf("Begin allocates %v times", allocs)
	}
	if d.Stats().QuiescentStates != 0 {
		t.Fatal("HP must not declare quiescent states")
	}
}

func TestHPCloseDrains(t *testing.T) {
	pool := newTestPool()
	d := newHPDomain(t, pool, 2, 1, 100)
	gs := acquire(t, d, 2)
	g, other := gs[0], gs[1]
	r := allocNode(pool, 5)
	other.Protect(0, r)
	g.Retire(r)
	for i := 0; i < 5; i++ {
		g.Retire(allocNode(pool, uint64(i)))
	}
	d.Close() // drains even protected nodes: workers are done
	if pool.Stats().Live != 0 {
		t.Fatalf("leaked %d", pool.Stats().Live)
	}
	if d.Stats().Pending != 0 {
		t.Fatal("pending after Close")
	}
}

func TestHPManyGuardsSnapshotAll(t *testing.T) {
	// A node protected by the *last* guard must survive scans by the
	// first guard: the snapshot must cover every worker's record.
	pool := newTestPool()
	const workers = 8
	d := newHPDomain(t, pool, workers, 1, 2)
	r := allocNode(pool, 1)
	gs := acquire(t, d, workers)
	gs[workers-1].Protect(0, r)
	g := gs[0]
	g.Retire(r)
	for i := 0; i < 10; i++ {
		g.Retire(allocNode(pool, uint64(i)))
	}
	if !pool.Valid(r) {
		t.Fatal("protection by another guard ignored")
	}
}
