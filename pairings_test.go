package qsense_test

import (
	"testing"

	"qsense"
)

// TestApplicabilityRuns: every container runs under every scheme. Each of
// the seven containers, under each name SchemeNames lists, must construct
// and survive a smoke workload that inserts, deletes (driving Retire) and
// re-reads.
func TestApplicabilityRuns(t *testing.T) {
	type setLike interface {
		Acquire() (qsense.SetHandle, error)
		Stats() qsense.Stats
		Close()
	}
	mkSet := map[string]func(qsense.Options) (setLike, error){
		"list":     func(o qsense.Options) (setLike, error) { return qsense.NewSet(o) },
		"skiplist": func(o qsense.Options) (setLike, error) { return qsense.NewSkipSet(o) },
		"bst":      func(o qsense.Options) (setLike, error) { return qsense.NewTreeSet(o) },
		"hashmap":  func(o qsense.Options) (setLike, error) { return qsense.NewHashSet(o) },
	}
	if _, err := qsense.ParseScheme("nonesuch"); err == nil {
		t.Fatal("ParseScheme accepted an unknown name")
	}
	for _, ds := range []string{"list", "skiplist", "bst", "hashmap", "skipmap", "queue", "stack"} {
		for _, name := range qsense.SchemeNames() {
			scheme, err := qsense.ParseScheme(name)
			if err != nil {
				t.Fatalf("SchemeNames entry %q does not parse: %v", name, err)
			}
			t.Run(ds+"/"+name, func(t *testing.T) {
				opts := qsense.Options{Scheme: scheme}
				switch ds {
				case "skipmap":
					m, err := qsense.NewSkipMap(opts)
					if err != nil {
						t.Fatal(err)
					}
					defer m.Close()
					h, err := m.Acquire()
					if err != nil {
						t.Fatal(err)
					}
					defer h.Release()
					for k := int64(1); k <= 32; k++ {
						h.PutUint64(k, uint64(k))
					}
					for k := int64(1); k <= 32; k += 2 {
						h.Delete(k)
					}
					if v, ok := h.GetUint64(2); !ok || v != 2 {
						t.Fatalf("Get(2) = %d,%v", v, ok)
					}
				case "queue":
					q, err := qsense.NewQueue(opts)
					if err != nil {
						t.Fatal(err)
					}
					defer q.Close()
					h, err := q.Acquire()
					if err != nil {
						t.Fatal(err)
					}
					defer h.Release()
					for v := uint64(0); v < 32; v++ {
						h.Enqueue(v)
					}
					for v := uint64(0); v < 32; v++ {
						if got, ok := h.Dequeue(); !ok || got != v {
							t.Fatalf("Dequeue = %d,%v want %d", got, ok, v)
						}
					}
				case "stack":
					s, err := qsense.NewStack(opts)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					h, err := s.Acquire()
					if err != nil {
						t.Fatal(err)
					}
					defer h.Release()
					for v := uint64(0); v < 32; v++ {
						h.Push(v)
					}
					for v := uint64(31); ; v-- {
						if got, ok := h.Pop(); !ok || got != v {
							t.Fatalf("Pop = %d,%v want %d", got, ok, v)
						}
						if v == 0 {
							break
						}
					}
				default:
					mk, ok := mkSet[ds]
					if !ok {
						t.Fatalf("no smoke driver for structure %q", ds)
					}
					s, err := mk(opts)
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					h, err := s.Acquire()
					if err != nil {
						t.Fatal(err)
					}
					defer h.Release()
					for k := int64(1); k <= 32; k++ {
						h.Insert(k)
					}
					for k := int64(1); k <= 32; k += 2 {
						h.Delete(k)
					}
					for k := int64(1); k <= 32; k++ {
						if want := k%2 == 0; h.Contains(k) != want {
							t.Fatalf("contains(%d) != %v", k, want)
						}
					}
					if scheme != qsense.SchemeNone {
						if st := s.Stats(); st.Retired == 0 {
							t.Fatalf("deletes retired nothing: %+v", st)
						}
					}
				}
			})
		}
	}
}
