package skiplist

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"qsense/internal/mem"
	"qsense/internal/reclaim"
)

// FuzzValueWord holds shapeOf to the encoding table in value.go: every word
// decodes to exactly one of empty / inline / tombstone / self / spilled, by
// the rule the table states for it; every word the encoders produce decodes
// to the shape it was made as; and inline words round-trip through
// inlineWord/appendInline (and Put's uintWord through Get's decode).
func FuzzValueWord(f *testing.F) {
	self := uint64(mem.MakeRef(7, 3))
	f.Add(uint64(0), self, []byte(nil))                                // empty
	f.Add(inlineWord([]byte("tiny")), self, []byte("tiny"))            // inline
	f.Add(uint64(valTombstone), self, []byte{})                        // tombstone
	f.Add(self, self, []byte("1234567"))                               // self
	f.Add(uint64(mem.MakeRef(9, 5)), self, bytes.Repeat([]byte{9}, 8)) // spilled
	f.Add(uint64(6), uint64(mem.MakeRef(0, 1)), []byte{0xff})          // bit 1 without bit 0: no encoder's
	f.Fuzz(func(t *testing.T, w, n uint64, b []byte) {
		node := mem.Ref(n).Untagged()
		rules := map[shape]bool{
			shapeEmpty:     w == 0,
			shapeInline:    w&valInlineBit != 0,
			shapeTombstone: w == valTombstone,
			shapeSelf:      w != 0 && w == uint64(node),
		}
		rules[shapeSpilled] = !rules[shapeEmpty] && !rules[shapeInline] && !rules[shapeTombstone] && !rules[shapeSelf]
		holds := 0
		for _, ok := range rules {
			if ok {
				holds++
			}
		}
		if got := shapeOf(w, node); holds != 1 || !rules[got] {
			t.Fatalf("word %#x of node %v: shapeOf says %d, %d shapes' rules hold: %v", w, node, got, holds, rules)
		}

		if len(b) > MaxInline {
			b = b[:MaxInline]
		}
		iw := inlineWord(b)
		if shapeOf(iw, node) != shapeInline || inlineLen(iw) != len(b) || !bytes.Equal(appendInline(nil, iw), b) {
			t.Fatalf("inline %x: word %#x decodes to shape %d, %x", b, iw, shapeOf(iw, node), appendInline(nil, iw))
		}
		if shapeOf(w, node) == shapeInline && inlineLen(w) <= MaxInline {
			// Re-encoding keeps exactly the bits the decoder reads.
			read := uint64(valInlineBit|valLenMask<<valLenShift) | (1<<(8*inlineLen(w))-1)<<valDataShift
			if got := inlineWord(appendInline(nil, w)); got != w&read {
				t.Fatalf("inline word %#x re-encodes as %#x, want %#x", w, got, w&read)
			}
		}
		if v := w >> (64 - 8*MaxInline); shapeOf(uintWord(v), node) != shapeInline || uintWord(v)>>valDataShift != v ||
			uintWord(v) != inlineWord(bytes.TrimRight(binary.LittleEndian.AppendUint64(nil, v), "\x00")) {
			t.Fatalf("Put(%#x): word %#x", v, uintWord(v))
		}

		r := mem.Ref(w).Untagged()
		if r.IsNil() {
			return
		}
		if want := map[bool]shape{true: shapeSelf, false: shapeSpilled}[r == node]; shapeOf(uint64(r), node) != want {
			t.Fatalf("Ref %v in node %v decodes to shape %d, want %d", r, node, shapeOf(uint64(r), node), want)
		}
	})
}

func TestSkipListValueSemantics(t *testing.T) {
	for _, scheme := range reclaim.Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			_, d, hs := newSet(t, scheme, 1, 8)
			defer d.Close()
			h := hs[0]
			if _, ok := h.Get(7); ok {
				t.Fatal("empty get")
			}
			if !h.Put(7, 100) {
				t.Fatal("first Put should insert")
			}
			if v, ok := h.Get(7); !ok || v != 100 {
				t.Fatalf("Get = %d,%v want 100,true", v, ok)
			}
			if h.Put(7, 200) {
				t.Fatal("second Put should update, not insert")
			}
			if v, ok := h.Get(7); !ok || v != 200 {
				t.Fatalf("Get after update = %d,%v want 200,true", v, ok)
			}
			// The set view shares the structure: Contains sees Put's key,
			// Insert on an existing key leaves its value alone.
			if !h.Contains(7) {
				t.Fatal("Contains misses Put key")
			}
			if h.Insert(7) {
				t.Fatal("Insert on existing key")
			}
			if v, _ := h.Get(7); v != 200 {
				t.Fatalf("Insert clobbered value: %d", v)
			}
			if !h.Delete(7) {
				t.Fatal("delete")
			}
			if _, ok := h.Get(7); ok {
				t.Fatal("get after delete")
			}
			// A re-inserted key must not resurrect the old value word
			// (recycled node slots carry stale words).
			if !h.Insert(7) {
				t.Fatal("re-insert")
			}
			if v, ok := h.Get(7); !ok || v != 0 {
				t.Fatalf("re-inserted key's value = %d want 0", v)
			}
		})
	}
}

// TestSkipListValueConcurrent hammers Put/Get/Delete on a small key range:
// every Get must observe a value some Put actually wrote for that key
// (values encode their key), never garbage from a recycled node.
func TestSkipListValueConcurrent(t *testing.T) {
	const (
		workers  = 4
		keyRange = 64
		opsEach  = 20000
	)
	for _, scheme := range []string{"qsense", "hp"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			_, d, hs := newSet(t, scheme, workers, 8)
			defer d.Close()
			var bad atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := hs[w]
					rng := uint64(w)*0x9E3779B9 + 1
					for i := 0; i < opsEach; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						k := int64(rng % keyRange)
						switch rng % 4 {
						case 0:
							h.Put(k, uint64(k)<<32|uint64(i))
						case 1:
							h.Delete(k)
						default:
							if v, ok := h.Get(k); ok && int64(v>>32) != k {
								bad.Add(1)
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if n := bad.Load(); n != 0 {
				t.Fatalf("%d Gets observed a value word from the wrong key", n)
			}
		})
	}
}

// TestSkipListByteValues covers the byte-valued surface single-threaded:
// inline and spilled round-trips, the upsert/displacement retire
// accounting, and the live-bytes gauges across every scheme.
func TestSkipListByteValues(t *testing.T) {
	for _, scheme := range reclaim.Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			s, d, hs := newSet(t, scheme, 1, 8)
			defer d.Close()
			h := hs[0]

			if _, ok := h.GetAppend(1, nil); ok {
				t.Fatal("empty GetAppend")
			}
			// Inline: up to 7 bytes live in the value word itself.
			if !h.PutBytes(1, []byte("tiny")) {
				t.Fatal("first PutBytes should insert")
			}
			if v, ok := h.GetAppend(1, nil); !ok || string(v) != "tiny" {
				t.Fatalf("inline GetAppend = %q,%v", v, ok)
			}
			if vs := s.ValueStats(); vs.Bytes != 4 || vs.Spilled != 0 {
				t.Fatalf("inline gauges = %+v", vs)
			}
			// Spilled: longer values live in a value node from the same pool.
			long := []byte("a value far too long to inline in one word")
			if h.PutBytes(1, long) {
				t.Fatal("second PutBytes should update")
			}
			if v, ok := h.GetAppend(1, nil); !ok || string(v) != string(long) {
				t.Fatalf("spilled GetAppend = %q,%v", v, ok)
			}
			vs := s.ValueStats()
			if vs.Bytes != int64(len(long)) || vs.Spilled != 1 {
				t.Fatalf("spilled gauges = %+v", vs)
			}
			// GetAppend appends: the prefix survives.
			pre := append([]byte(nil), "pfx:"...)
			if v, ok := h.GetAppend(1, pre); !ok || string(v) != "pfx:"+string(long) {
				t.Fatalf("GetAppend with prefix = %q,%v", v, ok)
			}
			// Displacing a spilled value retires its node through the domain.
			if h.PutBytes(1, []byte("spilled again, still too long")) {
				t.Fatal("third PutBytes should update")
			}
			vs = s.ValueStats()
			if vs.ValueRetires == 0 {
				t.Fatalf("no value retires after displacing a spilled value: %+v", vs)
			}
			if vs.Spilled != 1 {
				t.Fatalf("spilled gauge after replace = %+v", vs)
			}
			// Zero-length values round-trip as present-and-empty.
			if h.PutBytes(2, nil) != true {
				t.Fatal("empty-value insert")
			}
			if v, ok := h.GetAppend(2, nil); !ok || len(v) != 0 {
				t.Fatalf("empty-value GetAppend = %q,%v", v, ok)
			}
			// Self: a long first value lives in its own node, and counts as
			// spilled all the same.
			if !h.PutBytes(3, long) {
				t.Fatal("spilled insert")
			}
			if v, ok := h.GetAppend(3, nil); !ok || string(v) != string(long) {
				t.Fatalf("self GetAppend = %q,%v", v, ok)
			}
			if v, ok := h.Get(3); !ok || v != binary.LittleEndian.Uint64(long) {
				t.Fatalf("self Get = %#x,%v", v, ok)
			}
			if vs := s.ValueStats(); vs.Spilled != 2 || vs.Bytes != int64(len(long)+len("spilled again, still too long")) {
				t.Fatalf("gauges with a self value = %+v", vs)
			}
			// Delete drops the gauges back to zero and retires the value node.
			if !h.Delete(1) || !h.Delete(2) || !h.Delete(3) {
				t.Fatal("delete")
			}
			if _, ok := h.GetAppend(1, nil); ok {
				t.Fatal("GetAppend after delete")
			}
			vs = s.ValueStats()
			if vs.Bytes != 0 || vs.Spilled != 0 {
				t.Fatalf("gauges after delete = %+v", vs)
			}
			if vs.StructRetires == 0 {
				t.Fatalf("no structural retires after delete: %+v", vs)
			}
		})
	}
}

// TestSkipListByteValueConcurrent is the torn/freed-value detector at the
// skiplist layer: concurrent upserts of self-describing spilled payloads
// (first byte = writer id, the rest a repeat of it keyed by the key) race
// with readers that verify every observed payload is internally consistent
// — a torn read (bytes from two writes) or a freed read (recycled value
// node) fails the check.
func TestSkipListByteValueConcurrent(t *testing.T) {
	const (
		workers  = 4
		keyRange = 32
		opsEach  = 8000
	)
	for _, scheme := range []string{"qsense", "hp", "ibr"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			_, d, hs := newSet(t, scheme, workers, 8)
			defer d.Close()
			var bad atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := hs[w]
					rng := uint64(w)*0x9E3779B9 + 1
					var buf, val []byte
					for i := 0; i < opsEach; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						k := int64(rng % keyRange)
						switch rng % 4 {
						case 0:
							// 9..24 bytes: always spilled. Every byte is
							// derived from (key, stamp), so any stitched or
							// recycled read breaks the pattern.
							n := 9 + int(rng%16)
							stamp := byte(rng)
							val = val[:0]
							for j := 0; j < n; j++ {
								val = append(val, stamp+byte(k)*3+byte(j))
							}
							h.PutBytes(k, val)
						case 1:
							h.Delete(k)
						default:
							v, ok := h.GetAppend(k, buf[:0])
							buf = v
							if !ok {
								continue
							}
							if len(v) < 9 {
								bad.Add(1)
								continue
							}
							stamp := v[0] - byte(k)*3
							for j := range v {
								if v[j] != stamp+byte(k)*3+byte(j) {
									bad.Add(1)
									break
								}
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if n := bad.Load(); n != 0 {
				t.Fatalf("%d torn or freed value reads", n)
			}
		})
	}
}
