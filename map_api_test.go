package qsense_test

import (
	"context"
	"sync"
	"testing"

	"qsense"
)

// TestPublicSkipMap: SkipMap's value semantics hold across every scheme
// through the public API alone.
func TestPublicSkipMap(t *testing.T) {
	for _, scheme := range apiSchemes {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			m, err := qsense.NewSkipMap(qsense.Options{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			h, err := m.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			defer h.Release()
			if _, ok := h.Get(1); ok {
				t.Fatal("empty get")
			}
			if !h.PutUint64(1, 11) {
				t.Fatal("first Put should insert")
			}
			if h.PutUint64(1, 22) {
				t.Fatal("second Put should update")
			}
			if v, ok := h.GetUint64(1); !ok || v != 22 {
				t.Fatalf("GetUint64 = %d,%v want 22,true", v, ok)
			}
			// The uint64 fast path stores minimal little-endian bytes; the
			// byte API reads the same entry.
			if b, ok := h.Get(1); !ok || len(b) != 1 || b[0] != 22 {
				t.Fatalf("Get = %v,%v want [22],true", b, ok)
			}
			// Byte values: an inline-sized update then a spilled (>7 byte)
			// one, both visible through GetAppend with a reused buffer.
			if h.Put(1, []byte("tiny")) {
				t.Fatal("byte Put on existing key should update")
			}
			spilled := []byte("a value too long to inline")
			if h.Put(1, spilled) {
				t.Fatal("spilled Put on existing key should update")
			}
			buf := make([]byte, 0, 64)
			if b, ok := h.GetAppend(1, buf); !ok || string(b) != string(spilled) {
				t.Fatalf("GetAppend = %q,%v", b, ok)
			}
			if !h.Delete(1) || h.Delete(1) {
				t.Fatal("delete semantics")
			}
			if m.Len() != 0 {
				t.Fatalf("Len = %d want 0", m.Len())
			}
			vs := m.Values()
			if vs.Bytes != 0 || vs.Spilled != 0 {
				t.Fatalf("value gauges not drained: %+v", vs)
			}
			if vs.ValueRetires == 0 {
				t.Fatal("spilled displacement should have retired a value node")
			}
		})
	}
}

// TestSkipMapLeaseChurn: goroutine-per-request leasing over the map — the
// connection-handling shape qsense-kvd uses — with concurrent Put/Get/
// Delete on a small key range. Every lease must come back and every Get
// must see a value written for its own key.
func TestSkipMapLeaseChurn(t *testing.T) {
	m, err := qsense.NewSkipMap(qsense.Options{Scheme: qsense.SchemeQSense})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const (
		goroutines = 32
		requests   = 40
		keyRange   = 128
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				h, err := m.AcquireWait(context.Background())
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < 32; i++ {
					k := int64((g*31 + r*7 + i) % keyRange)
					switch i % 4 {
					case 0:
						h.PutUint64(k, uint64(k)*1000)
					case 1:
						h.Delete(k)
					default:
						if v, ok := h.GetUint64(k); ok && v != uint64(k)*1000 {
							errs <- errWrongValue{k: k, v: v}
							h.Release()
							return
						}
					}
				}
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.AcquiredHandles != st.ReleasedHandles {
		t.Fatalf("leaked leases: acquired %d released %d", st.AcquiredHandles, st.ReleasedHandles)
	}
}

type errWrongValue struct {
	k int64
	v uint64
}

func (e errWrongValue) Error() string { return "wrong value word observed" }

// TestMapHandleLeaveJoin: the park protocol on a map handle, over every
// scheme. Under QSBR and QSense a handle that Left holds back none of
// another handle's frees, and after Join it operates as before without
// counting a Rejoin; under every other scheme the pair changes nothing.
func TestMapHandleLeaveJoin(t *testing.T) {
	for _, name := range qsense.SchemeNames() {
		t.Run(name, func(t *testing.T) {
			scheme := qsense.Scheme(name)
			m, err := qsense.NewSkipMap(qsense.Options{Scheme: scheme, MaxWorkers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			a, b := lease(t, m.Acquire), lease(t, m.Acquire)
			defer a.Release()
			defer b.Release()
			long := []byte("a value too long to inline")
			b.Put(1, long)

			before := m.Stats()
			b.Leave()
			b.Join()
			after := m.Stats()
			before.RoosterPasses, after.RoosterPasses = 0, 0
			epoch := scheme == qsense.SchemeQSBR || scheme == qsense.SchemeQSense
			if !epoch && after != before {
				t.Errorf("Leave/Join moved the stats:\n%+v\n%+v", before, after)
			}

			b.Leave()
			for i := 0; i < 4096; i++ {
				a.Put(2, long) // each overwrite retires the displaced value
			}
			st := m.Stats()
			if epoch && (st.Freed == before.Freed || st.InFallback) {
				t.Errorf("a left handle holds back frees: freed %d → %d, fallback %v",
					before.Freed, st.Freed, st.InFallback)
			}
			b.Join()
			if v, ok := b.Get(1); !ok || string(v) != string(long) {
				t.Fatalf("after Join, Get(1) = %q,%v", v, ok)
			}
			if !b.Put(3, long) || !b.Delete(3) || b.Delete(3) {
				t.Fatal("after Join, Put/Delete semantics")
			}
			if st := m.Stats(); st.Rejoins != 0 {
				t.Errorf("rejoins %d, want 0: Join is not a recovery", st.Rejoins)
			}
		})
	}
}
