package kvd

import (
	"bytes"
	"io"
	"strconv"
	"testing"
	"time"

	"qsense/internal/resp"
	"qsense/internal/workload"
)

// TestKeyOf: the batch's Prefetch gets the key of every GET, SET and DEL,
// in any case, and nothing from a command without one.
func TestKeyOf(t *testing.T) {
	for _, c := range []struct {
		cmd string
		key int64
		ok  bool
	}{
		{"GET 7", 7, true}, {"set -3 x", -3, true}, {"Del 12", 12, true},
		{"GET", 0, false}, {"GET x", 0, false}, {"PING", 0, false},
		{"STATS 5", 0, false}, {"GETX 5", 0, false},
	} {
		args := bytes.Fields([]byte(c.cmd))
		if k, ok := keyOf(args); k != c.key || ok != c.ok {
			t.Errorf("keyOf(%q) = %d, %v; want %d, %v", c.cmd, k, ok, c.key, c.ok)
		}
	}
}

// TestBatchEndsAtQuit: the commands of one socket read are one batch, and
// a QUIT in its middle still ends the connection there — the commands
// behind it are not run, as they were not when commands were read one at a
// time.
func TestBatchEndsAtQuit(t *testing.T) {
	_, addr := startServer(t, Config{})
	cl := dialClient(t, addr)
	cl.wr.Command("SET", "1", "a")
	cl.wr.Command("QUIT")
	cl.wr.Command("SET", "2", "b")
	if err := cl.wr.Flush(); err != nil {
		t.Fatal(err)
	}
	cl.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := range 2 {
		if rp, err := cl.rd.ReadReply(); err != nil || rp.Str != "OK" {
			t.Fatalf("reply %d: %+v, %v; want +OK", i, rp, err)
		}
	}
	if rp, err := cl.rd.ReadReply(); err != io.EOF {
		t.Fatalf("after QUIT: %+v, %v; want the connection closed", rp, err)
	}
	other := dialClient(t, addr)
	if rp := other.do(t, "GET", "1"); string(rp.Bulk) != "a" {
		t.Fatalf("GET 1 = %+v; want the value set before QUIT", rp)
	}
	if rp := other.do(t, "GET", "2"); rp.Kind != '$' || rp.Bulk != nil {
		t.Fatalf("GET 2 = %+v; the SET behind QUIT ran", rp)
	}
}

// BenchmarkServeBatch prices one pipelined batch of 64 GETs (an op is the
// batch) at kv-read's shape: an in-process server on loopback, qsense, 2^18
// keys with every other one stored under a 64-byte value, zipf(0.99) ranks
// scattered by an odd multiplier. The keys are drawn and the batches encoded
// before the timer starts; the client writes a batch and reads its 64
// replies, so an op is the round trip, the client's share included.
func BenchmarkServeBatch(b *testing.B) {
	const (
		keys  = 1 << 18
		batch = 64
		ring  = 1 << 10 // batches, 2^16 keys
	)
	_, addr := startServer(b, Config{Scheme: "qsense"})
	cl := dialClient(b, addr)
	val := make([]byte, 0, 64)
	for k := int64(0); k < keys; k += 2 * batch {
		for j := k; j < k+2*batch; j += 2 {
			val = workload.AppendPayload(val[:0], j, 1, 64)
			cl.wr.CommandBytes([]byte("SET"), strconv.AppendInt(nil, j, 10), val)
		}
		if err := cl.wr.Flush(); err != nil {
			b.Fatal(err)
		}
		for range batch {
			if rp, err := cl.rd.ReadReply(); err != nil || rp.Str != "OK" {
				b.Fatalf("prefill: %+v, %v", rp, err)
			}
		}
	}
	rng := workload.NewRNG(7)
	batches := make([][]byte, ring)
	for i := range batches {
		var buf bytes.Buffer
		w := resp.NewWriter(&buf)
		for range batch {
			k := rng.ZipfKey(keys, 0.99) * 0x9E3779B1 % keys
			w.CommandBytes([]byte("GET"), strconv.AppendInt(nil, k, 10))
		}
		w.Flush()
		batches[i] = buf.Bytes()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.c.Write(batches[i%ring]); err != nil {
			b.Fatal(err)
		}
		for range batch {
			if _, err := cl.rd.ReadReply(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
