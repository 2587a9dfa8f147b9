package main

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
)

// The generator's own RESP codec. It shares no code with internal/resp, so a
// change to that package moves the server side of a measurement only.

var (
	cmdGet = []byte("*2\r\n$3\r\nGET\r\n")
	cmdDel = []byte("*2\r\n$3\r\nDEL\r\n")
	cmdSet = []byte("*3\r\n$3\r\nSET\r\n")
)

func appendBulk(dst, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

// appendKeyCmd appends "<head> key" where head is cmdGet, cmdDel or cmdSet.
func appendKeyCmd(dst, head []byte, key int64) []byte {
	var kb [20]byte
	dst = append(dst, head...)
	return appendBulk(dst, strconv.AppendInt(kb[:0], key, 10))
}

// reply is one decoded server reply. data aliases the decoder's buffer and is
// valid until the next call to next.
type reply struct {
	kind byte   // '+', '-', ':' or '$'
	n    int64  // the integer of ':'; -1 for a null bulk
	data []byte // the text of '+' and '-', the bytes of '$'
}

// decoder reads replies from a connection through one fixed buffer.
type decoder struct {
	r        io.Reader
	buf      []byte
	pos, end int
	// firstFill, when stamp is set, receives the time the next Read
	// returned: the moment the first reply byte of a batch arrived.
	stamp     bool
	firstFill time.Time
}

func newDecoder(r io.Reader) *decoder { return &decoder{r: r, buf: make([]byte, 64<<10)} }

func (d *decoder) fill() error {
	if d.pos > 0 {
		d.end = copy(d.buf, d.buf[d.pos:d.end])
		d.pos = 0
	}
	if d.end == len(d.buf) {
		return errors.New("reply larger than the decoder's buffer")
	}
	n, err := d.r.Read(d.buf[d.end:])
	if d.stamp {
		d.firstFill, d.stamp = time.Now(), false
	}
	d.end += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// line returns the bytes up to the next CRLF and consumes them with it.
func (d *decoder) line() ([]byte, error) {
	for from := d.pos; ; {
		for i := from; i+1 < d.end; i++ {
			if d.buf[i] == '\r' && d.buf[i+1] == '\n' {
				l := d.buf[d.pos:i]
				d.pos = i + 2
				return l, nil
			}
		}
		from = max(d.end-1-d.pos, 0) // fill moves pos to 0
		if err := d.fill(); err != nil {
			return nil, err
		}
	}
}

func (d *decoder) next() (reply, error) {
	l, err := d.line()
	if err != nil {
		return reply{}, err
	}
	if len(l) == 0 {
		return reply{}, errors.New("empty reply line")
	}
	rp := reply{kind: l[0]}
	switch l[0] {
	case '+', '-':
		rp.data = l[1:]
	case ':', '$':
		var ok bool
		if rp.n, ok = atoi(l[1:]); !ok {
			return reply{}, fmt.Errorf("bad reply integer %q", l)
		}
		if l[0] == ':' || rp.n < 0 {
			break
		}
		need := int(rp.n) + 2
		for d.end-d.pos < need {
			if err := d.fill(); err != nil {
				return reply{}, err
			}
		}
		rp.data = d.buf[d.pos : d.pos+int(rp.n)]
		d.pos += need
	default:
		return reply{}, fmt.Errorf("unknown reply type %q", l[0])
	}
	return rp, nil
}

// atoi parses a decimal int64 without allocating.
func atoi(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}
