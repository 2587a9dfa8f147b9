package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"qsense"
	"qsense/internal/workload"
)

// libUnit is one worker of a lib workload: a goroutine holding one leased
// MapHandle of the shared SkipMap.
type libUnit struct {
	m       *qsense.SkipMap
	h       qsense.MapHandle
	gen     *generator
	mod     *model
	ops     [unitOps]op
	vals    [unitOps][]byte // SET payloads, built outside the timer
	scratch []byte
	at      int
	panics  int64
}

func newLibUnit(m *qsense.SkipMap, gen *generator, mod *model) (*libUnit, error) {
	h, err := m.Acquire()
	if err != nil {
		return nil, err
	}
	return &libUnit{m: m, h: h, gen: gen, mod: mod}, nil
}

func (u *libUnit) build() {
	for i := range u.ops {
		o := u.gen.next()
		u.ops[i] = o
		if o.kind == opSet {
			u.vals[i] = workload.AppendPayload(u.vals[i][:0], o.key, o.salt, valueSize)
		}
	}
}

func (u *libUnit) run(bool) (failed int) {
	for u.at = 0; u.at < unitOps; {
		failed += u.runSome()
	}
	return failed
}

// runSome executes ops from u.at until the unit ends or one panics. A
// recovered panic costs that op, and the handle is released and leased
// again, as kvd's connection handler does.
func (u *libUnit) runSome() (failed int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, "benchmark: recovered:", r)
			u.panics++
			u.mod.forget(u.ops[u.at].key)
			u.at++
			failed++
			u.h.Release()
			h, err := u.m.Acquire()
			if err != nil {
				panic(err)
			}
			u.h = h
		}
	}()
	for ; u.at < unitOps; u.at++ {
		if !u.exec(u.at) {
			u.mod.forget(u.ops[u.at].key)
			failed++
		}
	}
	return failed
}

func (u *libUnit) exec(i int) bool {
	o := u.ops[i]
	switch o.kind {
	case opGet:
		val, found := u.h.GetAppend(o.key, u.scratch[:0])
		u.scratch = val
		return u.mod.checkGet(o.key, val, found)
	case opSet:
		inserted := u.h.Put(o.key, u.vals[i])
		was := u.mod.state[o.key]
		u.mod.applySet(o.key, o.salt)
		return was == unknown || inserted == (was == absent)
	default:
		return u.mod.checkDel(o.key, u.h.Delete(o.key))
	}
}

// libPrefill stores every prefilled key through one handle.
func libPrefill(m *qsense.SkipMap, sp spec, seed uint64) error {
	h, err := m.Acquire()
	if err != nil {
		return err
	}
	defer h.Release()
	var val []byte
	for k := int64(0); k < sp.keys(); k++ {
		if prefilled(k) {
			val = workload.AppendPayload(val[:0], k, prefillSalt(seed, k), valueSize)
			if !h.Put(k, val) {
				return fmt.Errorf("prefill: key %d was already present", k)
			}
		}
	}
	return nil
}

// libChild is the body of a lib worker process: it hosts the structure and
// the workers, and prints its result as one JSON line. spawned is when the
// parent started it, so that set-up time counts process start.
func libChild(sp spec, c config, traceMode bool, spawned time.Time) (res result, err error) {
	seed, windows := c.seed, c.seconds
	scheme, err := qsense.ParseScheme(sp.scheme)
	if err != nil {
		return res, err
	}
	m, err := qsense.NewSkipMap(qsense.Options{Scheme: scheme})
	if err != nil {
		return res, err
	}
	units := make([]unit, workers)
	lus := make([]*libUnit, workers)
	for i := range units {
		if lus[i], err = newLibUnit(m, newGenerator(sp, seed, i), newModel(sp, seed, i)); err != nil {
			return res, err
		}
		units[i] = lus[i]
	}
	res.Setup.Start = time.Since(spawned).Seconds()

	t := time.Now()
	if err := libPrefill(m, sp, seed); err != nil {
		return res, err
	}
	res.Setup.Prefill = time.Since(t).Seconds()

	var smp *sampler
	if traceMode {
		smp = &sampler{read: func() (sample, error) { return sampleFromMap(m), nil }}
	}
	if err := runPhases(units, host{os.Getpid(), spawned}, c.warmupUnits(), windows, smp, &res); err != nil {
		return res, err
	}
	for _, u := range lus {
		res.Panics += u.panics
		u.h.Release()
	}
	m.Close()
	return res, nil
}

// runLib measures one lib workload in a fresh child process of this binary.
func runLib(sp spec, c config, windows int, traceMode bool) (res result, err error) {
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if traceMode {
		trace = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(windows+60)*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-role", "lib", "-workload", sp.name, "-short="+strconv.FormatBool(c.short),
		"-seed", strconv.FormatUint(c.seed, 10), "-seconds", strconv.Itoa(windows), "-trace", trace,
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("lib worker child: %w", err)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("lib worker child printed %q: %w", out, err)
	}
	return res, nil
}
