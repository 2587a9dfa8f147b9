package qsense_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"qsense"
	"qsense/internal/workload"
)

// TestSkipMapValueConformance is the torn/freed-value detector at the
// public API, run across every scheme: concurrent
// handles upsert self-verifying payloads (workload.AppendPayload embeds a
// per-write salt and fills the body from a checksummed stream) over a
// small hot key range while readers verify every observed value. A read
// that stitches bytes from two writes (torn), or that lands on a recycled
// value node (freed), fails VerifyPayload. Sizes straddle the 7-byte
// inline boundary so both representations — and the transitions between
// them — are exercised.
func TestSkipMapValueConformance(t *testing.T) {
	const (
		workers  = 4
		keyRange = 48
	)
	opsEach := 8000
	if testing.Short() {
		opsEach = 2000
	}
	for _, scheme := range apiSchemes {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			m, err := qsense.NewSkipMap(qsense.Options{Scheme: scheme, MaxWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			var bad, reads atomic.Uint64
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h, err := m.Acquire()
					if err != nil {
						errs <- err
						return
					}
					defer h.Release()
					rng := workload.NewRNG(uint64(w)*7919 + 32)
					var buf, val []byte
					for i := 0; i < opsEach; i++ {
						k := rng.Key(keyRange)
						switch rng.Next() % 4 {
						case 0:
							// 0..24 bytes: inline, spilled, and the
							// boundary between them.
							n := int(rng.Next() % 25)
							val = workload.AppendPayload(val[:0], k, rng.Next(), n)
							h.Put(k, val)
						case 1:
							h.Delete(k)
						default:
							v, ok := h.GetAppend(k, buf[:0])
							buf = v
							if ok {
								reads.Add(1)
								if !workload.VerifyPayload(v, k) {
									bad.Add(1)
								}
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if n := bad.Load(); n != 0 {
				t.Fatalf("%d of %d reads observed torn or freed value bytes", n, reads.Load())
			}
			if reads.Load() == 0 {
				t.Fatal("detector never observed a value; workload broken")
			}
			// Drain: after deleting every key the value gauges must
			// return to zero — leaked payload bytes mean a lost retire.
			h, err := m.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			for k := int64(0); k < keyRange; k++ {
				h.Delete(k)
			}
			h.Release()
			if vs := m.Values(); vs.Bytes != 0 || vs.Spilled != 0 {
				t.Fatalf("value gauges nonzero after full drain: %+v", vs)
			}
		})
	}
}
