package resp

import (
	"bytes"
	"io"
	"strconv"
	"testing"
)

var errProto = &ProtocolError{msg: "reference: framing violation"}

// refCommands is the reference the fuzz target holds ReadCommand to: the
// same grammar parsed the naive way, from the whole input in memory, with
// a fresh allocation for everything it returns. It yields the commands in
// order and how the stream ends: io.EOF between commands, or errProto.
func refCommands(data []byte) (cmds [][][]byte, end error) {
	// line cuts one CRLF-terminated line, which must end within the
	// reader's 4 KiB buffer.
	line := func() ([]byte, bool) {
		window := data[:min(len(data), maxInline)]
		nl := bytes.IndexByte(window, '\n')
		if nl < 1 || data[nl-1] != '\r' {
			return nil, false
		}
		l := data[:nl-1]
		data = data[nl+1:]
		return l, true
	}
	length := func(max int64) (int64, bool) {
		l, ok := line()
		if !ok {
			return 0, false
		}
		n, err := strconv.ParseInt(string(l), 10, 64)
		return n, err == nil && n >= 0 && n <= max
	}
	for {
		if len(data) == 0 {
			return cmds, io.EOF
		}
		if data[0] != '*' {
			l, ok := line()
			if !ok {
				return cmds, errProto
			}
			fields := bytes.Fields(bytes.Clone(l))
			if len(fields) > MaxArgs {
				return cmds, errProto
			}
			if len(fields) > 0 {
				cmds = append(cmds, fields)
			}
			continue
		}
		data = data[1:]
		n, ok := length(MaxArgs)
		if !ok {
			return cmds, errProto
		}
		var args [][]byte
		for i := int64(0); i < n; i++ {
			if len(data) == 0 || data[0] != '$' {
				return cmds, errProto
			}
			data = data[1:]
			size, ok := length(MaxBulk)
			if !ok || int64(len(data)) < size+2 || data[size] != '\r' || data[size+1] != '\n' {
				return cmds, errProto
			}
			args = append(args, bytes.Clone(data[:size]))
			data = data[size+2:]
		}
		if n > 0 {
			cmds = append(cmds, args)
		}
	}
}

// chunked hands its data out at most n bytes per Read.
type chunked struct {
	data []byte
	n    int
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.n)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// FuzzReadCommand feeds arbitrary bytes in arbitrary chunkings to the
// buffer-reusing reader and holds it to the reference: the same commands,
// the same kind of ending, no panic, and no argument whose capacity reaches
// past its own bytes into the scratch its neighbours share.
func FuzzReadCommand(f *testing.F) {
	for _, in := range garbageCommands {
		f.Add([]byte(in), uint16(1))
		f.Add([]byte(in), uint16(4096))
	}
	f.Add(pipeline(3), uint16(7))
	f.Add([]byte("  SET   5   99\r\n\r\nGET 5\r\n*0\r\n*1\r\n$4\r\nPING\r\n"), uint16(3))
	f.Add(append(pipeline(1), "*1\r\n$3\r\nab"...), uint16(5000))
	// Each way the in-place parse declines, whole in the buffer (4096) and
	// trickled (1): a command cut at the 4 KiB buffer edge, leading zeros, a
	// sign, ten digits, an empty array, a bulk string without its CRLF, an
	// inline command between two arrays.
	for _, in := range []string{
		string(getBatch(200)),
		"*02\r\n$3\r\nGET\r\n$0003\r\n123\r\n",
		"*1\r\n$+3\r\nabc\r\n*+1\r\n$1\r\nx\r\n",
		"*1\r\n$0000000003\r\nabc\r\n*1\r\n$1000000000\r\n",
		"*0\r\n*1\r\n$4\r\nPING\r\n",
		"*1\r\n$3\r\nabcXY*1\r\n$4\r\nPING\r\n",
		"*1\r\n$4\r\nPING\r\nGET 5\r\n*1\r\n$4\r\nPING\r\n",
	} {
		f.Add([]byte(in), uint16(4095))
		f.Add([]byte(in), uint16(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		want, wantEnd := refCommands(data)
		r := NewReader(&chunked{data: data, n: int(chunk) + 1})
		for i, w := range want {
			args, err := r.ReadCommand()
			if err != nil {
				t.Fatalf("command %d: %v, reference parsed %q", i, err, w)
			}
			if len(args) != len(w) {
				t.Fatalf("command %d: %d args %q, reference %d %q", i, len(args), args, len(w), w)
			}
			for j := range w {
				if !bytes.Equal(args[j], w[j]) {
					t.Fatalf("command %d arg %d = %q, reference %q", i, j, args[j], w[j])
				}
				if cap(args[j]) != len(args[j]) {
					t.Fatalf("command %d arg %d: %d bytes, capacity %d", i, j, len(args[j]), cap(args[j]))
				}
			}
		}
		args, err := r.ReadCommand()
		if err == nil || (err == io.EOF) != (wantEnd == io.EOF) || IsProtocol(err) != IsProtocol(wantEnd) {
			t.Fatalf("after %d commands: %q, %v; reference ends with %v", len(want), args, err, wantEnd)
		}
	})
}
