package reclaim

import "testing"

// TestHyalineEraFilterSkipsStaleReader: with a real era clock wired, a
// reader whose operation began before a batch's nodes were even allocated
// (and that has not widened its bound since) must be skipped by publish, so
// the batch frees without its acknowledgment — the IBR+Hyaline combo's
// bounded-garbage property in its smallest deterministic form.
func TestHyalineEraFilterSkipsStaleReader(t *testing.T) {
	pool := newTestPool()
	d, err := NewHyaline(Config{Workers: 4, HPs: 2, Q: 2, Free: freeInto(pool), Era: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	gs := acquire(t, d, 2)
	reader, writer := gs[0], gs[1]

	reader.Begin() // inbox active, era bound frozen at the current clock

	pool.AdvanceEra() // everything allocated from here is born past the reader's bound

	r1 := allocNode(pool, 1)
	r2 := allocNode(pool, 2)
	writer.Begin()
	writer.Retire(r1)
	writer.Retire(r2)
	writer.Begin() // batch reaches Q: publish — the stale reader must be filtered
	writer.ClearHPs()

	if pool.Valid(r1) || pool.Valid(r2) {
		t.Fatal("batch did not free past the stale reader: era filter not engaged")
	}
	if st := d.Stats(); st.Pending != 0 {
		t.Fatalf("Pending = %d with only a stale reader active, want 0", st.Pending)
	}

	// The flip side: a reader that widened its bound (Protect during a
	// traversal that could reach the nodes) must still be delivered to,
	// and the batch must outlive it until it acknowledges.
	r3 := allocNode(pool, 3)
	reader.Protect(0, r3) // widens the reader's bound to the current era
	r4 := allocNode(pool, 4)
	writer.Begin()
	writer.Retire(r3)
	writer.Retire(r4)
	writer.Begin() // publish: bmin <= reader's bound -> delivered to reader too
	writer.ClearHPs()
	if !pool.Valid(r3) || !pool.Valid(r4) {
		t.Fatal("batch freed while a delivered reader had not acknowledged")
	}
	reader.ClearHPs() // reader acknowledges: last ref, batch frees
	if pool.Valid(r3) || pool.Valid(r4) {
		t.Fatal("batch did not free after the last acknowledgment")
	}
	if st := d.Stats(); st.Pending != 0 {
		t.Fatalf("Pending = %d after full acknowledgment, want 0", st.Pending)
	}
}
