package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"qsense/internal/workload"
)

// kvdProc is a running qsense-kvd child.
type kvdProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	waited chan error
}

// startKVD starts the real server binary with production hardening on, so
// per-command deadline arming and the memory-limit clock read are in the
// measured path, and learns its address from the "listening on" line.
func startKVD(bin string, sp spec) (*kvdProc, error) {
	p := &kvdProc{waited: make(chan error, 1)}
	p.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-scheme", sp.scheme,
		"-idle-timeout", "10m", "-write-timeout", "5s", "-mem-limit", "200000")
	p.cmd.Stderr = &p.stderr
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() { // to EOF, so the child never blocks on its stdout
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
		p.waited <- p.cmd.Wait()
	}()
	select {
	case p.addr = <-addr:
		return p, nil
	case err := <-p.waited:
		return nil, fmt.Errorf("qsense-kvd exited before listening: %v: %s", err, p.stderr.String())
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.waited
		return nil, errors.New("qsense-kvd did not report its address within 20 s")
	}
}

// stop ends the child and waits for it: a drain request, then a kill.
func (p *kvdProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.waited:
	case <-time.After(3 * time.Second):
		p.cmd.Process.Kill()
		<-p.waited
	}
}

// kvClient is one closed-loop connection: it has one batch in flight.
type kvClient struct {
	addr string
	conn net.Conn
	dec  *decoder
	gen  *generator
	mod  *model
	ops  [unitOps]op
	req  []byte
	val  []byte

	drops                       int64
	writeNs, waitNs, readNs, nb int64 // traced batches only
}

func (c *kvClient) dial() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn, c.dec = conn, newDecoder(conn)
	return nil
}

// encode appends o's request bytes.
func (c *kvClient) encode(dst []byte, o op) []byte {
	switch o.kind {
	case opGet:
		return appendKeyCmd(dst, cmdGet, o.key)
	case opDel:
		return appendKeyCmd(dst, cmdDel, o.key)
	}
	c.val = workload.AppendPayload(c.val[:0], o.key, o.salt, valueSize)
	return appendBulk(appendKeyCmd(dst, cmdSet, o.key), c.val)
}

func (c *kvClient) build() {
	c.req = c.req[:0]
	for i := range c.ops {
		c.ops[i] = c.gen.next()
		c.req = c.encode(c.req, c.ops[i])
	}
}

func (c *kvClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// drop abandons the connection: ops from i on went unanswered.
func (c *kvClient) drop(i int) int {
	if c.conn != nil {
		c.close()
		c.drops++
	}
	for _, o := range c.ops[i:] {
		c.mod.forget(o.key)
	}
	return unitOps - i
}

func (c *kvClient) run(traced bool) (failed int) {
	if c.conn == nil {
		if err := c.dial(); err != nil {
			time.Sleep(10 * time.Millisecond) // a dead server must not spin the loop
			return c.drop(0)
		}
	}
	var t0, t1 time.Time
	if traced {
		t0 = time.Now()
	}
	if _, err := c.conn.Write(c.req); err != nil {
		return c.drop(0)
	}
	if traced {
		t1 = time.Now()
		c.dec.stamp = true
	}
	for i, o := range c.ops {
		rp, err := c.dec.next()
		if err != nil {
			return failed + c.drop(i)
		}
		if !c.check(o, rp) {
			c.mod.forget(o.key)
			failed++
		}
	}
	if traced {
		c.writeNs += int64(t1.Sub(t0))
		c.waitNs += int64(c.dec.firstFill.Sub(t1))
		c.readNs += int64(time.Since(c.dec.firstFill))
		c.nb++
	}
	return failed
}

// check judges one reply. -ERR and -BUSY fail the op.
func (c *kvClient) check(o op, rp reply) bool {
	switch {
	case o.kind == opGet && rp.kind == '$':
		return c.mod.checkGet(o.key, rp.data, rp.n >= 0)
	case o.kind == opSet && rp.kind == '+' && string(rp.data) == "OK":
		c.mod.applySet(o.key, o.salt)
		return true
	case o.kind == opDel && rp.kind == ':' && (rp.n == 0 || rp.n == 1):
		return c.mod.checkDel(o.key, rp.n == 1)
	}
	return false
}

// roundTrip sends req on a fresh decoder's connection and wants one reply of
// the given kind.
func roundTrip(conn net.Conn, dec *decoder, req string, kind byte) (reply, error) {
	if _, err := conn.Write([]byte(req)); err != nil {
		return reply{}, err
	}
	rp, err := dec.next()
	if err != nil {
		return reply{}, err
	}
	if rp.kind != kind {
		return reply{}, fmt.Errorf("%q answered %c%s", strings.TrimSpace(req), rp.kind, rp.data)
	}
	return rp, nil
}

// stallConns opens n connections that take their lease (a PING is answered)
// and then stay silent until the returned function closes them.
func stallConns(addr string, n int) (closeAll func(), err error) {
	var conns []net.Conn
	closeAll = func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			closeAll()
			return nil, err
		}
		conns = append(conns, conn)
		if _, err := roundTrip(conn, newDecoder(conn), "PING\r\n", '+'); err != nil {
			closeAll()
			return nil, fmt.Errorf("stalled connection: %w", err)
		}
	}
	return closeAll, nil
}

// kvPrefill stores every prefilled key over one connection, 256 SETs deep.
func kvPrefill(addr string, sp spec, seed uint64) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	dec := newDecoder(conn)
	c := kvClient{}
	var req []byte
	inFlight := 0
	flush := func() error {
		if _, err := conn.Write(req); err != nil {
			return err
		}
		for ; inFlight > 0; inFlight-- {
			rp, err := dec.next()
			if err != nil {
				return err
			}
			if rp.kind != '+' {
				return fmt.Errorf("prefill SET answered %c%s", rp.kind, rp.data)
			}
		}
		req = req[:0]
		return nil
	}
	for k := int64(0); k < sp.keys(); k++ {
		if !prefilled(k) {
			continue
		}
		req = c.encode(req, op{kind: opSet, key: k, salt: prefillSalt(seed, k)})
		if inFlight++; inFlight == 256 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// statsReader returns a sampler read function over its own connection.
func statsReader(addr string) (func() (sample, error), func(), error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	dec := newDecoder(conn)
	read := func() (sample, error) {
		rp, err := roundTrip(conn, dec, "STATS\r\n", '$')
		if err != nil {
			return sample{}, err
		}
		return parseStats(rp.data), nil
	}
	return read, func() { conn.Close() }, nil
}

// parseStats reads the "key: value" lines of a STATS reply.
func parseStats(text []byte) sample {
	kv := map[string]int64{}
	for _, line := range strings.Split(string(text), "\n") {
		if k, v, ok := strings.Cut(line, ": "); ok {
			if n, ok := atoi([]byte(v)); ok {
				kv[k] = n
			}
		}
	}
	return sampleFromStats(kv)
}

// runKV measures one kv workload against a fresh server child. windows == 0
// runs set-up only.
func runKV(sp spec, c config, windows int, traceMode bool) (res result, err error) {
	seed, kvdBin := c.seed, c.kvdBin
	if _, err := os.Stat(kvdBin); err != nil {
		return res, fmt.Errorf("the qsense-kvd binary (-kvd): %w", err)
	}
	t0 := time.Now()
	srv, err := startKVD(kvdBin, sp)
	if err != nil {
		return res, err
	}
	defer srv.stop()
	// The stalled pair takes its leases first, so the whole run, set-up
	// included, is served under the same regime.
	closeStalled, err := stallConns(srv.addr, sp.stalled)
	if err != nil {
		return res, err
	}
	defer closeStalled()
	res.Setup.Start = time.Since(t0).Seconds()

	t := time.Now()
	if err := kvPrefill(srv.addr, sp, seed); err != nil {
		return res, fmt.Errorf("prefill: %w", err)
	}
	res.Setup.Prefill = time.Since(t).Seconds()

	clients := make([]*kvClient, workers)
	units := make([]unit, workers)
	for i := range clients {
		clients[i] = &kvClient{addr: srv.addr, gen: newGenerator(sp, seed, i), mod: newModel(sp, seed, i)}
		if err := clients[i].dial(); err != nil {
			return res, err
		}
		defer clients[i].close()
		units[i] = clients[i]
	}
	var smp *sampler
	if traceMode {
		read, closeStats, err := statsReader(srv.addr)
		if err != nil {
			return res, err
		}
		defer closeStats()
		smp = &sampler{read: read}
	}
	if err := runPhases(units, host{srv.cmd.Process.Pid, t0}, c.warmupUnits(), windows, smp, &res); err != nil {
		return res, err
	}
	for _, c := range clients {
		res.Panics += c.drops
		res.Spans.WriteUs += float64(c.writeNs) / 1e3
		res.Spans.WaitUs += float64(c.waitNs) / 1e3
		res.Spans.ReadUs += float64(c.readNs) / 1e3
		res.Spans.Batches += int(c.nb)
	}
	if n := float64(res.Spans.Batches); n > 0 {
		res.Spans.WriteUs /= n
		res.Spans.WaitUs /= n
		res.Spans.ReadUs /= n
	}
	return res, nil
}
