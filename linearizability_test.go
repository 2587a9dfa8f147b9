package qsense_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"qsense"
	"qsense/internal/lincheck"
	"qsense/internal/workload"
)

// recordedMap is a MapHandle whose every call lands in a lincheck.Log: the
// invoke/return recorder of ROADMAP item 1, map half. It wraps the leased
// handle from outside; nothing on the map's own path knows it is there.
//
// Values are 5 bytes (inline in the node) or 16 (spilled to a value node),
// a write's id in either; the log keeps the id. A read of any other shape —
// the halves of a spilled value disagreeing, a length nobody wrote — logs
// as ^0, which no write carries, so a torn or recycled value is a
// linearizability failure like any other wrong answer.
type recordedMap struct {
	h   qsense.MapHandle
	log *lincheck.Log
	buf []byte
}

func (r *recordedMap) put(key int64, id uint64, spilled bool) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], id)
	binary.LittleEndian.PutUint64(b[8:], id)
	val := b[:5]
	if spilled {
		val = b[:]
	}
	r.log.Record(lincheck.Put, key, func(o *lincheck.Op) { o.Arg, o.OK = id, r.h.Put(key, val) })
}

func (r *recordedMap) get(key int64) {
	r.log.Record(lincheck.Get, key, func(o *lincheck.Op) {
		r.buf, o.OK = r.h.GetAppend(key, r.buf[:0])
		if o.OK {
			o.Out = decodeID(r.buf)
		}
	})
}

func (r *recordedMap) del(key int64) {
	r.log.Record(lincheck.Del, key, func(o *lincheck.Op) { o.OK = r.h.Delete(key) })
}

func decodeID(b []byte) uint64 {
	switch {
	case len(b) == 5:
		return uint64(binary.LittleEndian.Uint32(b)) | uint64(b[4])<<32
	case len(b) == 16 && binary.LittleEndian.Uint64(b) == binary.LittleEndian.Uint64(b[8:]):
		return binary.LittleEndian.Uint64(b)
	}
	return ^uint64(0)
}

// TestSkipMapLinearizable checks recorded histories of real MapHandles, per
// key, against the sequential map: every scheme, 2–4
// goroutines whose writes COLLIDE on a few dozen zipf keys (the ruler's
// workers are partitioned; these are not). Each worker returns its lease
// and takes another every few hundred operations, so a handle changes hands
// while others delete and re-insert what the node index words — node and
// edge form alike — point at. Run it with -race -cpu=2,4; a failure prints
// its seed.
func TestSkipMapLinearizable(t *testing.T) {
	const keys = 32
	// shared, the zipf stream's coldest rank, is one key outside [0, keys)
	// whose node index word — the top 12 bits of the skip list's indexHash,
	// at the index's starting 2^12 words — is also an in-range key's: a word
	// taken for the wrong key's node shows as that key's value, and an edge
	// one key left that is taken to bracket the other shows as a lost value.
	word := func(k int64) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 >> 52 }
	sharesWord := func(c int64) bool {
		for k := int64(0); k < keys; k++ {
			if word(k) == word(c) {
				return true
			}
		}
		return false
	}
	shared := int64(keys)
	for !sharesWord(shared) {
		shared++
	}
	opsEach := 4000
	if testing.Short() {
		opsEach = 1000
	}
	for _, scheme := range qsense.SchemeNames() {
		for seed := uint64(1); seed <= 2; seed++ {
			workers := 2 + int((seed+1)%3)
			name := fmt.Sprintf("%s/workers=%d/seed=%d", scheme, workers, seed)
			t.Run(name, func(t *testing.T) {
				m, err := qsense.NewSkipMap(qsense.Options{Scheme: qsense.Scheme(scheme), MaxWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				clock := lincheck.NewClock()
				logs := make([]*lincheck.Log, workers)
				var wg sync.WaitGroup
				for w := range logs {
					logs[w] = &lincheck.Log{Who: w, Clock: clock}
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						defer func() {
							if rec := recover(); rec != nil {
								t.Errorf("worker %d: %v", w, rec)
							}
						}()
						r := &recordedMap{log: logs[w]}
						rng := workload.NewRNG(seed<<8 | uint64(w))
						for i := 0; i < opsEach; i++ {
							if i%300 == 0 {
								if r.h != nil {
									r.h.Release()
								}
								h, err := m.Acquire()
								if err != nil {
									t.Error(err)
									return
								}
								r.h = h
							}
							key := rng.ZipfKey(keys+1, 0.99)
							if key == keys {
								key = shared
							}
							switch op := rng.Next() % 8; {
							case op < 4:
								r.get(key)
							case op < 6:
								r.put(key, uint64(w)<<32|uint64(i), op == 5)
							default:
								r.del(key)
							}
						}
						r.h.Release()
					}(w)
				}
				wg.Wait()
				if err := lincheck.Check(logs...); err != nil && !t.Failed() {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSkipMapFingerAcrossQuiescence is the attack ROADMAP names on search
// hints: handle a looks keys up (leaving hints: the node index word on a
// present key's node, and on the predecessor of the edge an absent key falls
// in), then takes no step for many epochs while handle b deletes, re-inserts
// and churns those very keys until their slots have been freed and re-used
// many times over; then a asks again. What the words remember names nodes
// that are gone, recycled, or — worst — recycled into the same key, and a's
// answers must still be the map's. Two ways of being quiet: idle with the
// lease held (under qsbr that blocks reclamation — the hints then point at
// retired, unfreed nodes; under qsense it forces the fallback path), and
// lease returned, the slot's handle picked up again afterwards (two slots,
// one held by b, so Acquire has only a's old slot to give). The history is
// sequential; the checker is the judge all the same.
func TestSkipMapFingerAcrossQuiescence(t *testing.T) {
	const (
		kHot, kGone, kGap, kNew = 40, 50, 65, 75 // 10, 20 … 90 present at the start; kGap and kNew absent
		// Each round deletes a key, inserts it and overwrites it — ids
		// alternate, so the insert is inline and the overwrite spills to a
		// value node — and the key's next DEL retires both: rounds × 2
		// retires, past qsense's default C of 8192. (A DEL + insert round
		// is one retire now that a first value lives in its node.)
		rounds = 12000
	)
	for _, scheme := range apiSchemes {
		for _, quiet := range []string{"idle", "released"} {
			t.Run(fmt.Sprintf("%s/%s", scheme, quiet), func(t *testing.T) {
				m, err := qsense.NewSkipMap(qsense.Options{Scheme: scheme, MaxWorkers: 2, HardMaxWorkers: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				clock := lincheck.NewClock()
				a := &recordedMap{h: lease(t, m.Acquire), log: &lincheck.Log{Who: 0, Clock: clock}}
				b := &recordedMap{h: lease(t, m.Acquire), log: &lincheck.Log{Who: 1, Clock: clock}}
				defer func() { a.h.Release(); b.h.Release() }()
				id := uint64(0)
				put := func(r *recordedMap, key int64) { id++; r.put(key, id, id%2 == 0) }
				for k := int64(10); k <= 90; k += 10 {
					put(b, k)
				}
				ask := func() {
					for _, k := range []int64{kHot, kGone, kGap, kNew} {
						a.get(k)
					}
				}
				ask()
				ask() // by index word, node and edge form

				// Deleted and re-inserted, the old node retired but not yet
				// freed: generation intact, only the mark gives it away.
				b.del(kHot)
				put(b, kHot)
				ask()

				if quiet == "released" {
					a.h.Release()
				}
				for i := 0; i < rounds; i++ {
					k := int64(10 + 10*(i%9))
					b.del(k)
					put(b, k)
					put(b, k)
				}
				b.del(kGone)
				put(b, kNew)
				if quiet == "released" {
					a.h = lease(t, m.Acquire)
				}
				st := m.Stats()
				if quiet == "released" || scheme != qsense.SchemeQSBR {
					if st.Freed < rounds {
						t.Errorf("only %d of %d retired nodes were freed: the hinted nodes' slots were not churned", st.Freed, st.Retired)
					}
				}
				if scheme == qsense.SchemeQSense && (quiet == "idle") != (st.SwitchesToFallback > 0) {
					t.Errorf("qsense, a %s: %d switches to the fallback path", quiet, st.SwitchesToFallback)
				}
				ask()
				ask()
				if err := lincheck.Check(a.log, b.log); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
