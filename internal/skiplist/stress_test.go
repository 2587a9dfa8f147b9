package skiplist

// Permanent regression batch for the upper-level edge-ABA use-after-free
// the skip list used to exhibit under the hp and rc schemes (the package
// doc's "historical violation of invariant 2"): Insert pre-stored every
// upper next word from the level-0 search and re-claimed a level only
// after a failed link CAS there, so a level's first link attempt could
// publish the node frozen at a long-dead pre-stored successor; a search's
// splice then wrote that freed node back into the chain (the splice CAS's
// expected value returned, defeating the check). The epoch schemes were
// immune; hp and rc crashed because their per-node grace arguments do not
// cover a re-exposed edge.
//
// Against pre-fix binaries this batch fails near-certainly (a
// mem.Violation panic or a validate error within ~10 repetitions); under
// the claim-then-link protocol it must stay green, including under -race
// and with `-tags qsensedebug` (which asserts splice liveness at the
// installation site). The CI race matrix runs it at -cpu=2,4 — the counts
// the bug fired at most readily. QSENSE_SKIPLIST_STRESS overrides the
// repetition count for longer soaks:
//
//	QSENSE_SKIPLIST_STRESS=120 go test ./internal/skiplist -run UAFRepro -cpu=2,4 -v

import (
	"os"
	"strconv"
	"sync"
	"testing"
)

// defaultUAFReps is the always-on batch size: big enough that the pre-fix
// protocol fails with near certainty, small enough for every CI run.
const defaultUAFReps = 30

func TestSkipListUAFReproHPRC(t *testing.T) {
	reps := defaultUAFReps
	if testing.Short() {
		reps = 10
	}
	if v, err := strconv.Atoi(os.Getenv("QSENSE_SKIPLIST_STRESS")); err == nil && v > 0 {
		reps = v // an explicit override beats the -short trim
	}
	for _, scheme := range []string{"hp", "rc"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			for rep := 0; rep < reps; rep++ {
				runDisjointRanges(t, scheme)
				if t.Failed() {
					t.Fatalf("failed at repetition %d/%d", rep+1, reps)
				}
			}
		})
	}
}

// TestSkipListSameKeyShadowing regression-tests invariant 4 of the package
// doc (equal-key shadowing): two goroutines run unpartitioned
// PutBytes/Delete/GetAppend over a handful of hot keys, so an insert of key
// k keeps landing in front of a node of key k that is being deleted. With
// cleanup searches that stop at the first key >= k the shadowed node is
// retired while the new node's upper link still leads to it, and the run
// dies within seconds on two cores under every scheme — qsbr included, it
// is not a reclamation bug. Bounded by operation count, not wall time.
func TestSkipListSameKeyShadowing(t *testing.T) {
	const (
		workers  = 2
		hotKeys  = 8
		coldKeys = 4096
	)
	opsEach := 200000
	if testing.Short() {
		opsEach = 50000
	}
	for _, scheme := range []string{"qsbr", "hp", "qsense"} {
		t.Run(scheme, func(t *testing.T) {
			s, d, hs := newSet(t, scheme, workers, 16)
			defer d.Close()
			// Cold odd keys between the hot even ones lengthen every
			// descent, widening the window between an insert's pass over
			// an upper level and its arrival at level 0.
			for k := int64(1); k < 2*coldKeys; k += 2 {
				hs[0].Insert(k)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("worker %d: %v", w, r)
						}
					}()
					h := hs[w]
					rng := uint64(w)*0x9E3779B9 + 1
					val := make([]byte, 64)
					var buf []byte
					for i := 0; i < opsEach && !t.Failed(); i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						k := int64(rng>>8%hotKeys) * (2 * coldKeys / hotKeys)
						switch rng % 8 {
						case 0, 1, 2:
							for j := range val {
								val[j] = byte(rng>>16) + byte(k) + byte(j)
							}
							h.PutBytes(k, val)
						case 3, 4, 5:
							h.Delete(k)
						default:
							v, ok := h.GetAppend(k, buf[:0])
							buf = v
							for j := range v {
								if ok && (len(v) != len(val) || v[j] != v[0]+byte(j)) {
									t.Errorf("key %d: torn or freed value read", k)
									return
								}
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return // the structure is corrupt; Validate could loop
			}
			if n, msg := s.Validate(); msg != "" || n < coldKeys || n > coldKeys+hotKeys {
				t.Fatalf("validate: n=%d %s", n, msg)
			}
		})
	}
}
