package resp

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func cmdString(args [][]byte) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = string(a)
	}
	return strings.Join(parts, " ")
}

func TestReadCommandArray(t *testing.T) {
	r := NewReader(strings.NewReader("*3\r\n$3\r\nSET\r\n$2\r\n42\r\n$5\r\nhello\r\n"))
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if got := cmdString(args); got != "SET 42 hello" {
		t.Fatalf("got %q", got)
	}
	if _, err := r.ReadCommand(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestReadCommandPipelined(t *testing.T) {
	// Three commands in one buffer, including empty-bulk and inline mixed
	// into the pipeline; all parse back to back without extra reads.
	in := "*2\r\n$3\r\nGET\r\n$1\r\n7\r\n" +
		"PING\r\n" +
		"*3\r\n$3\r\nSET\r\n$1\r\n7\r\n$0\r\n\r\n"
	r := NewReader(strings.NewReader(in))
	want := []string{"GET 7", "PING", "SET 7 "}
	for i, w := range want {
		if i > 0 && r.Buffered() == 0 {
			t.Fatalf("pipeline drained early before command %d", i)
		}
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		if got := cmdString(args); got != w {
			t.Fatalf("command %d = %q want %q", i, got, w)
		}
	}
	if r.Buffered() != 0 {
		t.Fatal("bytes left after pipeline")
	}
}

// trickle delivers one byte per Read call: the worst-case partial read.
type trickle struct{ data []byte }

func (tr *trickle) Read(p []byte) (int, error) {
	if len(tr.data) == 0 {
		return 0, io.EOF
	}
	p[0] = tr.data[0]
	tr.data = tr.data[1:]
	return 1, nil
}

func (tr *trickle) Reset(data []byte) { tr.data = data }

func TestReadCommandPartialReads(t *testing.T) {
	in := "*2\r\n$4\r\nINCR\r\n$3\r\n123\r\n*1\r\n$4\r\nPING\r\n"
	r := NewReader(&trickle{data: []byte(in)})
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if got := cmdString(args); got != "INCR 123" {
		t.Fatalf("got %q", got)
	}
	if args, err = r.ReadCommand(); err != nil || cmdString(args) != "PING" {
		t.Fatalf("second command: %q, %v", cmdString(args), err)
	}
}

func TestReadCommandInline(t *testing.T) {
	r := NewReader(strings.NewReader("  SET   5   99\r\n\r\nGET 5\r\n"))
	args, err := r.ReadCommand()
	if err != nil || cmdString(args) != "SET 5 99" {
		t.Fatalf("inline: %q, %v", cmdString(args), err)
	}
	// The bare CRLF between commands is skipped, not returned as an empty
	// command.
	args, err = r.ReadCommand()
	if err != nil || cmdString(args) != "GET 5" {
		t.Fatalf("after blank line: %q, %v", cmdString(args), err)
	}
}

// garbageCommands each draw a ProtocolError; FuzzReadCommand starts from
// them too.
var garbageCommands = []string{
	"*notanumber\r\n",                      // bad array length
	"*2\r\n$3\r\nGET\r\n:5\r\n",            // non-bulk element
	"*1\r\n$-1\r\n",                        // negative bulk length
	"*1\r\n$x\r\n",                         // bad bulk length
	"*1\r\n$3\r\nabcde\r\n",                // bulk body not CRLF-framed
	"*99999\r\n",                           // array over MaxArgs
	fmt.Sprintf("*1\r\n$%d\r\n", 1<<30),    // bulk over MaxBulk
	"*1\r\n$3\r\nab",                       // EOF mid-command
	"*2\r\n$3\r\nGET\r\n",                  // EOF between elements
	"GET 5\n",                              // inline missing CR
	strings.Repeat("x", 8<<10) + " \r\n",   // oversized inline line
	"*" + strings.Repeat("9", 30) + "\r\n", // length overflows int64
}

func TestReadCommandGarbage(t *testing.T) {
	for _, in := range garbageCommands {
		r := NewReader(strings.NewReader(in))
		if _, err := r.ReadCommand(); !IsProtocol(err) {
			t.Fatalf("input %.40q: want ProtocolError, got %v", in, err)
		}
	}
}

func TestReadReply(t *testing.T) {
	in := "+OK\r\n-ERR bad\r\n:42\r\n$5\r\nhello\r\n$-1\r\n$0\r\n\r\n"
	r := NewReader(strings.NewReader(in))
	rp, err := r.ReadReply()
	if err != nil || rp.Kind != '+' || rp.Str != "OK" {
		t.Fatalf("simple: %+v, %v", rp, err)
	}
	rp, _ = r.ReadReply()
	if !rp.IsError() || rp.Str != "ERR bad" {
		t.Fatalf("error: %+v", rp)
	}
	rp, _ = r.ReadReply()
	if rp.Kind != ':' || rp.Int != 42 {
		t.Fatalf("int: %+v", rp)
	}
	rp, _ = r.ReadReply()
	if rp.Kind != '$' || string(rp.Bulk) != "hello" {
		t.Fatalf("bulk: %+v", rp)
	}
	rp, _ = r.ReadReply()
	if rp.Kind != '$' || rp.Bulk != nil {
		t.Fatalf("null bulk: %+v", rp)
	}
	rp, _ = r.ReadReply()
	if rp.Kind != '$' || rp.Bulk == nil || len(rp.Bulk) != 0 {
		t.Fatalf("empty bulk: %+v", rp)
	}
	if _, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	// Garbage replies are protocol errors.
	for _, bad := range []string{"?x\r\n", ":notanum\r\n", "$5\r\nab\r\n"} {
		r := NewReader(strings.NewReader(bad))
		if _, err := r.ReadReply(); !IsProtocol(err) {
			t.Fatalf("reply %q: want ProtocolError, got %v", bad, err)
		}
	}
}

func TestWriterReplies(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SimpleString("OK")
	w.Error("ERR nope")
	w.Int(-7)
	w.Bulk([]byte("hello"))
	w.BulkString("")
	w.Null()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "+OK\r\n-ERR nope\r\n:-7\r\n$5\r\nhello\r\n$0\r\n\r\n$-1\r\n"
	if got := buf.String(); got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

// pipeline encodes n rounds of GET / SET (64-byte value) / DEL.
func pipeline(n int) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	val := bytes.Repeat([]byte("v"), 64)
	for i := 0; i < n; i++ {
		key := strconv.AppendInt(nil, int64(i)*7919, 10)
		w.CommandBytes([]byte("GET"), key)
		w.CommandBytes([]byte("SET"), key, val)
		w.CommandBytes([]byte("DEL"), key)
	}
	w.Flush()
	return buf.Bytes()
}

// TestZeroAllocs: in steady state the command reader, the reply reader and
// every writer call allocate nothing. The reader outlives its stream here
// as it outlives a batch on a connection: bufio retries after io.EOF.
func TestZeroAllocs(t *testing.T) {
	const rounds = 100
	stream := pipeline(rounds)
	src := bytes.NewReader(nil)
	rd := NewReader(src)
	if n := testing.AllocsPerRun(20, func() {
		src.Reset(stream)
		for i := 0; i < 3*rounds; i++ {
			if _, err := rd.ReadCommand(); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("ReadCommand: %v allocations per %d commands, want 0", n, 3*rounds)
	}

	val := bytes.Repeat([]byte("v"), 64)
	var out bytes.Buffer
	wr := NewWriter(&out)
	writeReplies := func() {
		wr.SimpleString("OK")
		wr.Int(1)
		wr.Bulk(val)
		wr.Null()
		wr.BulkString("PONG")
		wr.Flush()
	}
	writeReplies()
	replies := bytes.Clone(out.Bytes())
	if n := testing.AllocsPerRun(20, func() {
		for i := 0; i < rounds; i++ {
			out.Reset()
			writeReplies()
			wr.CommandBytes(val[:3], val[:5], val)
			wr.Flush()
		}
	}); n != 0 {
		t.Errorf("Writer: %v allocations per %d rounds of replies and a command, want 0", n, rounds)
	}

	if n := testing.AllocsPerRun(20, func() {
		for i := 0; i < rounds; i++ {
			src.Reset(replies)
			for j := 0; j < 5; j++ {
				if _, err := rd.ReadReply(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}); n != 0 {
		t.Errorf("ReadReply: %v allocations per %d replies, want 0", n, 5*rounds)
	}
}

// TestScratchFollowsArrival: payload space is claimed as bytes arrive, so
// a peer that declares the largest command the limits allow and sends none
// of it costs one chunk, not 32 MiB.
func TestScratchFollowsArrival(t *testing.T) {
	var in strings.Builder
	fmt.Fprintf(&in, "*%d\r\n", MaxArgs)
	for i := 0; i < MaxArgs-1; i++ {
		in.WriteString("$0\r\n\r\n")
	}
	fmt.Fprintf(&in, "$%d\r\nonly these bytes", MaxBulk)
	r := NewReader(strings.NewReader(in.String()))
	if _, err := r.ReadCommand(); !IsProtocol(err) {
		t.Fatalf("want ProtocolError for the truncated command, got %v", err)
	}
	if cap(r.buf) > 2*bulkChunk {
		t.Fatalf("scratch grew to %d bytes for %d declared and 16 sent", cap(r.buf), MaxBulk)
	}
}

// TestScratchReleasedAfterBigCommand: a command past scratchKeep parses
// intact (its arguments survive the scratch moving as it grows), and its
// buffer is let go when the next command is read.
func TestScratchReleasedAfterBigCommand(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 300<<10/16)
	var in bytes.Buffer
	w := NewWriter(&in)
	w.CommandBytes([]byte("SET"), []byte("42"), big)
	w.Command("GET", "42")
	w.Flush()
	r := NewReader(&in)
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[0]) != "SET" || string(args[1]) != "42" || !bytes.Equal(args[2], big) {
		t.Fatalf("big SET mangled: %d args, %q %q, %d value bytes", len(args), args[0], args[1], len(args[2]))
	}
	if args, err = r.ReadCommand(); err != nil || cmdString(args) != "GET 42" {
		t.Fatalf("after big SET: %q, %v", cmdString(args), err)
	}
	if cap(r.buf) > scratchKeep {
		t.Fatalf("scratch still %d bytes after the big command was done with", cap(r.buf))
	}
}

// getBatch encodes n GETs of six-digit keys: 25 bytes each, so 64 of them
// (1600 bytes) are one pipelined batch that fits the 4 KiB read buffer and
// 200 of them cut command 164 at its edge.
func getBatch(n int) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range n {
		w.CommandBytes([]byte("GET"), strconv.AppendInt(nil, 100000+int64(i)*7919%900000, 10))
	}
	w.Flush()
	return buf.Bytes()
}

// TestReadCommandInPlace: a batch that one socket read left wholly in the
// buffer parses without claiming payload scratch, every argument a view of
// the buffered bytes; and a batch that straddles the buffer's edge parses to
// the same arguments as a 1-byte trickle, which never finds a command whole.
func TestReadCommandInPlace(t *testing.T) {
	batch := getBatch(64)
	r := NewReader(bytes.NewReader(batch))
	buffered, err := r.br.Peek(len(batch))
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for i := range 64 {
		args, err := r.ReadCommand()
		if err != nil || len(args) != 2 || string(args[0]) != "GET" {
			t.Fatalf("command %d: %q, %v", i, args, err)
		}
		for j, a := range args {
			off := at + bytes.Index(buffered[at:], a)
			if &buffered[off] != &a[0] || cap(a) != len(a) {
				t.Fatalf("command %d arg %d is not the buffered bytes at %d (capacity %d of %d)", i, j, off, cap(a), len(a))
			}
			at = off + len(a)
		}
	}
	if cap(r.buf) != 0 {
		t.Fatalf("payload scratch of %d bytes claimed for a wholly buffered batch", cap(r.buf))
	}

	batch = getBatch(200)
	whole, trickled := NewReader(bytes.NewReader(batch)), NewReader(&trickle{data: batch})
	for i := range 200 {
		want, err := trickled.ReadCommand()
		if err != nil {
			t.Fatalf("trickled command %d: %v", i, err)
		}
		want = slices.Clone(want)
		if got, err := whole.ReadCommand(); err != nil || cmdString(got) != cmdString(want) {
			t.Fatalf("command %d: %q, %v; trickled %q", i, cmdString(got), err, cmdString(want))
		}
	}
}

// TestReadBatch: a batch that one socket read left wholly in the buffer
// comes back from one ReadBatch, every argument still the buffered bytes once
// the whole batch has parsed, with no allocation once the reader's views have
// grown; a batch cut at the buffer's edge comes back in pieces that end where
// the buffer does, the same commands in the same order as ReadCommand gives.
func TestReadBatch(t *testing.T) {
	batch := getBatch(64)
	src := bytes.NewReader(nil)
	r := NewReader(src)
	read := func() [][][]byte {
		src.Reset(batch)
		cmds, err := r.ReadBatch()
		if err != nil {
			t.Fatal(err)
		}
		return cmds
	}
	cmds := read()
	if len(cmds) != 64 {
		t.Fatalf("one read of 64 GETs gave a batch of %d", len(cmds))
	}
	one := NewReader(bytes.NewReader(batch))
	for i, args := range cmds {
		want, err := one.ReadCommand()
		if err != nil || cmdString(args) != cmdString(want) || cap(args[1]) != len(args[1]) {
			t.Fatalf("command %d: %q (capacity %d), ReadCommand %q, %v", i, cmdString(args), cap(args[1]), cmdString(want), err)
		}
	}
	if n := testing.AllocsPerRun(20, func() { read() }); n != 0 {
		t.Errorf("ReadBatch: %v allocations per batch of 64, want 0", n)
	}

	batch = getBatch(200)
	whole, single := NewReader(bytes.NewReader(batch)), NewReader(bytes.NewReader(batch))
	var sizes []int
	for done := 0; done < 200; {
		cmds, err := whole.ReadBatch()
		if err != nil {
			t.Fatalf("after %d commands: %v", done, err)
		}
		for _, args := range cmds {
			if want, err := single.ReadCommand(); err != nil || cmdString(args) != cmdString(want) {
				t.Fatalf("command %d: %q, ReadCommand %q, %v", done, cmdString(args), cmdString(want), err)
			}
			done++
		}
		sizes = append(sizes, len(cmds))
	}
	if len(sizes) < 2 || sizes[0] != 4096/25 {
		t.Fatalf("200 GETs of 25 bytes came in batches of %v; want the first to end at the 4 KiB buffer's edge, after %d", sizes, 4096/25)
	}
}

// BenchmarkReadCommand prices parsing one pipelined batch of 64 GETs (an
// op is the batch). buffered is the in-place parse: one read brings the
// batch, its first command takes the general path and the other 63 are
// parsed where they lie. trickle is the bypass: 1-byte reads, so no command
// is ever whole in the buffer and all 64 take the general path.
func BenchmarkReadCommand(b *testing.B) {
	batch := getBatch(64)
	for _, src := range []struct {
		name string
		r    interface {
			io.Reader
			Reset([]byte)
		}
	}{{"buffered", bytes.NewReader(nil)}, {"trickle", &trickle{}}} {
		b.Run(src.name, func(b *testing.B) {
			r := NewReader(src.r)
			for b.Loop() {
				src.r.Reset(batch)
				for range 64 {
					if _, err := r.ReadCommand(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
