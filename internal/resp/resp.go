// Package resp implements the subset of the RESP wire protocol (REdis
// Serialization Protocol) that qsense-kvd speaks: commands arrive as
// arrays of bulk strings (or as space-separated inline commands, the
// telnet convenience), replies leave as simple strings, errors, integers,
// bulk strings and nulls. The reader is strict about framing and bounded
// in what it will buffer — a garbage or hostile peer costs one error, not
// memory: payload space grows as bytes arrive, never on a declared length
// — and buffered, so pipelined commands parse back to back without extra
// reads. A command that already lies wholly in the read buffer is parsed in
// place: its arguments alias the buffered bytes, nothing is copied. ReadBatch
// hands a server a pipelined batch at once: the next command, and behind it
// every command the same socket read left whole in the buffer, each parsed
// once, so the server can look at every key before it runs the first
// command. Neither direction allocates in steady state.
package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Wire limits. A command that exceeds them draws a *ProtocolError; the
// server replies -ERR and drops the connection.
const (
	// MaxArgs bounds the elements of one command array.
	MaxArgs = 64
	// MaxBulk bounds one bulk string's declared length.
	MaxBulk = 512 << 10
	// maxInline bounds one inline command line.
	maxInline = 4 << 10
	// bulkChunk is the least payload space readBody asks for at a time.
	bulkChunk = 4 << 10
	// scratchKeep is the largest command or reply whose payload scratch is
	// kept for the next one (kvd's default Config.MaxBulk): one big SET
	// must not pin its buffer for the connection's life.
	scratchKeep = 64 << 10
)

// ProtocolError is a framing violation: the stream can no longer be
// trusted, so the connection should be closed after reporting it.
type ProtocolError struct{ msg string }

func (e *ProtocolError) Error() string { return e.msg }

func protoErrf(format string, args ...any) error {
	return &ProtocolError{msg: fmt.Sprintf(format, args...)}
}

// IsProtocol reports whether err is a framing violation (as opposed to an
// I/O error like a closed connection).
func IsProtocol(err error) bool {
	var pe *ProtocolError
	return errors.As(err, &pe)
}

// Reader parses RESP commands (the server half) or replies (the client
// half) from a stream. Every slice it returns — a batch, its commands, their
// arguments, Reply.Bulk — lives in storage the Reader owns and reuses: the
// payload scratch, the read buffer itself for a command that was wholly
// buffered when it was parsed, and the argument and command views, which
// grow to the largest batch seen. It is valid until the next ReadBatch,
// ReadCommand or ReadReply call and must be copied to be kept.
type Reader struct {
	br   *bufio.Reader
	args [][]byte   // the arguments of every returned command, back to back
	cmds [][][]byte // the returned batch: views of args
	buf  []byte     // payload bytes of the current command or reply
	str  string     // text of the last simple-string or error reply
}

// NewReader wraps r for command parsing.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReader(r)} }

// Buffered reports how many request bytes are already buffered — when it
// is zero the peer has no pipelined command in flight, which is the
// moment to flush replies.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// reset empties the payload scratch and the argument views for the next
// command or reply, letting go of a scratch grown past scratchKeep.
func (r *Reader) reset() {
	if len(r.buf) > scratchKeep {
		r.buf = nil
	}
	r.buf = r.buf[:0]
	r.args = r.args[:0]
}

// ReadBatch reads the next command as ReadCommand does and then every
// command that already lies wholly in the read buffer behind it, parsed in
// place (inPlace): a pipelined batch, in order, each command parsed once. Only
// the first command may read the socket, so the views into the read buffer
// stay put until the next call. The batch ends at the first command that
// inPlace declines — one cut at the buffer's edge, an inline command, a
// framing error — which the next call parses, or reports, on the general
// path.
func (r *Reader) ReadBatch() ([][][]byte, error) {
	first, err := r.ReadCommand()
	if err != nil {
		return nil, err
	}
	r.cmds = append(r.cmds[:0], first)
	for {
		args := r.inPlace()
		if args == nil {
			return r.cmds, nil
		}
		r.cmds = append(r.cmds, args)
	}
}

// ReadCommand reads one command: either a RESP array of bulk strings or
// an inline command line. It blocks until a full command (or an error) is
// available; partial reads resume transparently across calls to the
// underlying reader. An array command that is already wholly buffered is
// parsed in place (inPlace); everything else takes the general path below.
func (r *Reader) ReadCommand() ([][]byte, error) {
	r.reset()
	if args := r.inPlace(); args != nil {
		return args, nil
	}
	for {
		first, err := r.br.ReadByte()
		if err != nil {
			return nil, err
		}
		if first != '*' {
			if err := r.br.UnreadByte(); err != nil {
				return nil, err
			}
			args, err := r.readInline()
			if err != nil {
				return nil, err
			}
			if len(args) == 0 {
				continue // bare CRLF between inline commands
			}
			return args, nil
		}
		n, err := r.readInt()
		if err != nil {
			return nil, err
		}
		if n < 0 || n > MaxArgs {
			return nil, protoErrf("resp: array of %d elements (max %d)", n, MaxArgs)
		}
		if n == 0 {
			continue // empty array: ignore, per server convention
		}
		for i := int64(0); i < n; i++ {
			from := len(r.buf)
			if err := r.readBulk(); err != nil {
				return nil, err
			}
			r.args = append(r.args, r.buf[from:])
		}
		// buf may have moved while it grew: re-slice each argument from
		// where its bytes ended up.
		from := 0
		for i, a := range r.args {
			end := from + len(a)
			r.args[i] = r.buf[from:end:end]
			from = end
		}
		return r.args, nil
	}
}

// inPlace parses one array command that lies wholly in the read buffer
// without copying it: each argument is a sub-slice of the buffered bytes
// with its capacity cut at its length, appended to args behind the batch's
// earlier commands, and the command's bytes are consumed only once it has
// parsed. It never reads the socket. Anything else — a command not yet
// wholly buffered, an inline command, *0, a length with a sign, a leading
// zero or ten digits, a missing CRLF, a MaxArgs or MaxBulk breach — returns
// nil having consumed nothing, and the general path parses it, so every
// framing error, limit and message is that path's.
func (r *Reader) inPlace() [][]byte {
	buf, _ := r.br.Peek(r.br.Buffered())
	if len(buf) == 0 || buf[0] != '*' {
		return nil
	}
	n, at, ok := length(buf, 1)
	if !ok || n == 0 || n > MaxArgs {
		return nil
	}
	args, first := r.args, len(r.args)
	for range n {
		if at >= len(buf) || buf[at] != '$' {
			return nil
		}
		size, from, ok := length(buf, at+1)
		if !ok || size > MaxBulk {
			return nil
		}
		end := from + size
		if end+2 > len(buf) || buf[end] != '\r' || buf[end+1] != '\n' {
			return nil
		}
		args = append(args, buf[from:end:end])
		at = end + 2
	}
	r.args = args
	r.br.Discard(at)
	return args[first:len(args):len(args)]
}

// length parses the length that starts at buf[at] and its CRLF: one to nine
// digits, no sign, no leading zero but in "0" itself. next is where the
// frame after the CRLF starts.
func length(buf []byte, at int) (n, next int, ok bool) {
	start := at
	for ; at < len(buf) && at-start < 10 && '0' <= buf[at] && buf[at] <= '9'; at++ {
		n = n*10 + int(buf[at]-'0')
	}
	if digits := at - start; digits == 0 || digits > 9 || digits > 1 && buf[start] == '0' {
		return 0, 0, false
	}
	if at+1 >= len(buf) || buf[at] != '\r' || buf[at+1] != '\n' {
		return 0, 0, false
	}
	return n, at + 2, true
}

// readBulk reads one $<len>\r\n<bytes>\r\n frame, appending the bytes to
// buf.
func (r *Reader) readBulk() error {
	prefix, err := r.br.ReadByte()
	if err != nil {
		return unexpectedEOF(err)
	}
	if prefix != '$' {
		return protoErrf("resp: expected bulk string, got %q", prefix)
	}
	n, err := r.readInt()
	if err != nil {
		return err
	}
	if n < 0 || n > MaxBulk {
		return protoErrf("resp: bulk length %d (max %d)", n, MaxBulk)
	}
	return r.readBody(int(n))
}

// readBody appends n payload bytes to buf and consumes their CRLF. Space
// is added a chunk at a time (append's growth makes the chunks larger as
// buf does), so buf grows with the bytes that arrive, not with the length
// declared.
func (r *Reader) readBody(n int) error {
	for need := n + 2; need > 0; {
		if len(r.buf) == cap(r.buf) {
			r.buf = slices.Grow(r.buf, min(need, bulkChunk))
		}
		at := len(r.buf)
		got, err := r.br.Read(r.buf[at:min(at+need, cap(r.buf))])
		r.buf = r.buf[:at+got]
		need -= got
		if err != nil {
			return unexpectedEOF(err)
		}
	}
	end := len(r.buf) - 2
	if r.buf[end] != '\r' || r.buf[end+1] != '\n' {
		return protoErrf("resp: bulk string missing CRLF terminator")
	}
	r.buf = r.buf[:end]
	return nil
}

// readInt reads the decimal line that follows a type prefix. (strconv
// copies its argument into the error it returns, so the conversion stays
// on the stack.)
func (r *Reader) readInt() (int64, error) {
	line, err := r.readLine()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return 0, protoErrf("resp: bad integer %q", line)
	}
	return n, nil
}

// readLine reads up to CRLF, excluding it, bounded by maxInline.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, protoErrf("resp: line exceeds %d bytes", maxInline)
	}
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, protoErrf("resp: line not CRLF-terminated")
	}
	line = line[:len(line)-2]
	if len(line) > maxInline {
		return nil, protoErrf("resp: line exceeds %d bytes", maxInline)
	}
	return line, nil
}

// readInline parses a space-separated inline command — the telnet
// convenience, and the one path that allocates.
func (r *Reader) readInline() ([][]byte, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	fields := bytes.Fields(line)
	if len(fields) > MaxArgs {
		return nil, protoErrf("resp: inline command of %d fields (max %d)", len(fields), MaxArgs)
	}
	return fields, nil
}

// unexpectedEOF turns a mid-frame EOF into a framing error; a clean EOF
// between commands stays io.EOF so the server closes quietly.
func unexpectedEOF(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return protoErrf("resp: stream ended mid-command")
	}
	return err
}

// Reply is one parsed server reply — the client half of the protocol,
// used by the load generator.
type Reply struct {
	Kind byte   // '+', '-', ':' or '$'
	Str  string // simple-string or error text
	Int  int64  // integer reply
	Bulk []byte // bulk body; nil for the null bulk ($-1)
}

// IsError reports an -ERR style reply.
func (rp Reply) IsError() bool { return rp.Kind == '-' }

// ReadReply reads one reply.
func (r *Reader) ReadReply() (Reply, error) {
	r.reset()
	prefix, err := r.br.ReadByte()
	if err != nil {
		return Reply{}, err
	}
	switch prefix {
	case '+', '-':
		line, err := r.readLine()
		if err != nil {
			return Reply{}, err
		}
		// A run of identical replies (+OK after +OK) shares one string.
		if string(line) != r.str {
			r.str = string(line)
		}
		return Reply{Kind: prefix, Str: r.str}, nil
	case ':':
		n, err := r.readInt()
		if err != nil {
			return Reply{}, err
		}
		return Reply{Kind: ':', Int: n}, nil
	case '$':
		n, err := r.readInt()
		if err != nil {
			return Reply{}, err
		}
		if n == -1 {
			return Reply{Kind: '$'}, nil
		}
		if n < 0 || n > MaxBulk {
			return Reply{}, protoErrf("resp: bulk reply length %d (max %d)", n, MaxBulk)
		}
		if err := r.readBody(int(n)); err != nil {
			return Reply{}, err
		}
		return Reply{Kind: '$', Bulk: r.buf}, nil
	default:
		return Reply{}, protoErrf("resp: unknown reply type %q", prefix)
	}
}

// Writer emits RESP replies, buffered; call Flush when the pipeline is
// drained.
type Writer struct {
	bw  *bufio.Writer
	num [24]byte // scratch for one "<prefix><int64>\r\n" header
}

// NewWriter wraps w for reply writing.
func NewWriter(w io.Writer) *Writer { return &Writer{bw: bufio.NewWriter(w)} }

// header writes <prefix><n>\r\n.
func (w *Writer) header(prefix byte, n int64) {
	w.bw.Write(append(strconv.AppendInt(append(w.num[:0], prefix), n, 10), '\r', '\n'))
}

// SimpleString writes +s.
func (w *Writer) SimpleString(s string) {
	w.bw.WriteByte('+')
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

// Error writes -msg.
func (w *Writer) Error(msg string) {
	w.bw.WriteByte('-')
	w.bw.WriteString(msg)
	w.bw.WriteString("\r\n")
}

// Int writes :n.
func (w *Writer) Int(n int64) { w.header(':', n) }

// Bulk writes $len b.
func (w *Writer) Bulk(b []byte) {
	w.header('$', int64(len(b)))
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

// BulkString is Bulk for a string.
func (w *Writer) BulkString(s string) {
	w.header('$', int64(len(s)))
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

// Command writes one client command as an array of bulk strings — the
// client half of the protocol, used by the load generator.
func (w *Writer) Command(args ...string) {
	w.header('*', int64(len(args)))
	for _, a := range args {
		w.BulkString(a)
	}
}

// CommandBytes is Command for pre-encoded arguments — the load generator's
// byte-valued SET path, which would otherwise pay a string conversion per
// payload.
func (w *Writer) CommandBytes(args ...[]byte) {
	w.header('*', int64(len(args)))
	for _, a := range args {
		w.Bulk(a)
	}
}

// Null writes the null bulk string $-1.
func (w *Writer) Null() { w.bw.WriteString("$-1\r\n") }

// Flush sends everything buffered.
func (w *Writer) Flush() error { return w.bw.Flush() }
