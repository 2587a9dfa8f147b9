package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// unit is one worker's request loop body: a pipelined batch against the
// server, or unitOps consecutive MapHandle calls.
type unit interface {
	// build generates the next unitOps ops. It runs outside the unit's timer.
	build()
	// run executes them, checks every result and returns how many failed.
	// traced asks for the unit's inner spans to be recorded as well.
	run(traced bool) (failed int)
}

// A second of the timed phase is four slots; a worker spends the first
// workLen of each slot on the workload and the rest on the reference
// (calib.go). The slots follow the wall clock, so every worker calibrates at
// once and the reference never competes with the workload for a core.
const (
	slotLen        = 250 * time.Millisecond
	workLen        = 200 * time.Millisecond
	slotsPerWindow = int(time.Second / slotLen)
)

// slot is what happened in one slot, summed over the workers.
type slot struct {
	Ops    int64         // verified ops completed
	Work   time.Duration // spent generating and running units
	Chunks int64         // reference chunks completed
	Cal    time.Duration // spent on the reference
}

// recorder is what one worker observed. Only its worker writes it.
type recorder struct {
	slots     []slot
	lat       []time.Duration // one per unit: build excluded
	latSlot   []int32         // the slot each unit ran in
	attempted int64
	failed    int64
}

// drive runs units until unitCap of them have run or slotCap slots have
// passed since start, whichever limit is set: the warm-up is a fixed count of
// units (counted work, so that its duration belongs to set-up time), the
// timed phase a fixed number of windows. In trace mode the even windows are
// traced and the odd ones are not, so one run prices the tracing against the
// same process, data and minute of machine weather.
func drive(u unit, ref *reference, start time.Time, unitCap, slotCap int, traceMode bool, rec *recorder) {
	rec.slots = make([]slot, 0, max(slotCap, 64))
	rec.lat = make([]time.Duration, 0, slotCap*5000)
	rec.latSlot = make([]int32, 0, slotCap*5000)
	for units := 0; unitCap == 0 || units < unitCap; {
		tb := time.Now()
		el := tb.Sub(start)
		s := int(el / slotLen)
		if slotCap > 0 && s >= slotCap {
			return
		}
		for len(rec.slots) <= s {
			rec.slots = append(rec.slots, slot{})
		}
		if el-time.Duration(s)*slotLen >= workLen {
			until := start.Add(time.Duration(s+1) * slotLen)
			for time.Now().Before(until) {
				ref.chunk()
				rec.slots[s].Chunks++
			}
			rec.slots[s].Cal += time.Since(tb)
			continue
		}
		traced := traceMode && s/slotsPerWindow%2 == 0
		u.build()
		t0 := time.Now()
		failed := u.run(traced)
		t1 := time.Now()
		units++
		rec.attempted += unitOps
		rec.failed += int64(failed)
		rec.slots[s].Ops += int64(unitOps - failed)
		rec.slots[s].Work += t1.Sub(tb)
		if slotCap > 0 && (!traceMode || traced) {
			rec.lat = append(rec.lat, t1.Sub(t0))
			rec.latSlot = append(rec.latSlot, int32(s))
		}
	}
}

// phases times the three parts of set-up, in seconds.
type phases struct {
	Start, Prefill, Warmup float64
}

// result is one measured run of one workload, as the process that hosted the
// workers saw it. The lib child prints it as JSON for its parent. Every time
// in it is scaled to the reference's nominal speed.
type result struct {
	Setup      phases
	SetupS     float64 // process start to first timed op, the reference's own time left out
	RefSeconds float64 // seconds the workers spent on the reference in the timed phase
	WarmSlow   float64 // slowdown the warm-up saw
	Slow       float64 // slowdown the timed phase saw (its slots' median)
	Throughput float64 // ops/s: median over the untraced slots
	Traced     float64 // the same over the traced slots of a traced run
	Unscaled   float64 // Throughput before scaling
	LatP50Us   float64
	LatP99Us   float64
	LatSamples int
	Ops        int64   // verified ops in the timed phase
	CPUSeconds float64 // host process, timed phase only, the reference's slices left out
	RSSPeakMB  float64 // host process VmHWM at the end of the timed phase
	ClientCPU  float64 // kv: the generator process's CPU seconds, likewise
	Attempted  int64   // warm-up and timed phase
	Failed     int64
	Panics     int64 // lib: recovered panics; kv: dropped connections
	Counts     counts
	Spans      spans
}

// spans are the mean inner spans of a traced kv batch, in microseconds.
type spans struct {
	WriteUs, WaitUs, ReadUs float64
	Batches                 int
}

// host is the process that holds the structure: this one, or a server child.
type host struct {
	pid     int
	started time.Time // for set-up time
}

// runPhases runs the warm-up and then the timed phase on every worker at
// once and folds what the workers recorded, and what the host process
// consumed meanwhile, into res. A non-nil sampler makes the run a traced one.
func runPhases(units []unit, h host, warmUnits, windows int, smp *sampler, res *result) error {
	traceMode := smp != nil
	t := time.Now()
	refs := make([]*reference, len(units))
	for i := range refs {
		refs[i] = newReference()
	}
	excluded := time.Since(t)
	phase := func(unitCap, slotCap int, traceMode bool, start time.Time) []recorder {
		recs := make([]recorder, len(units))
		var wg sync.WaitGroup
		for i, u := range units {
			wg.Add(1)
			go func() {
				defer wg.Done()
				drive(u, refs[i], start, unitCap, slotCap, traceMode, &recs[i])
			}()
		}
		wg.Wait()
		return recs
	}
	fold := func(recs []recorder) (slots []slot) {
		for _, rec := range recs {
			for j, sl := range rec.slots {
				if j == len(slots) {
					slots = append(slots, slot{})
				}
				slots[j].Ops += sl.Ops
				slots[j].Work += sl.Work
				slots[j].Chunks += sl.Chunks
				slots[j].Cal += sl.Cal
			}
			res.Attempted += rec.attempted
			res.Failed += rec.failed
		}
		return slots
	}
	t = time.Now()
	warm := fold(phase(warmUnits, 0, false, t))
	var cal time.Duration
	for _, sl := range warm {
		cal += sl.Cal / time.Duration(len(units))
	}
	_, res.WarmSlow = slowdowns(warm)
	res.Setup.Start /= res.WarmSlow
	res.Setup.Prefill /= res.WarmSlow
	res.Setup.Warmup = (time.Since(t) - cal).Seconds() / res.WarmSlow
	res.SetupS = (time.Since(h.started) - excluded - cal).Seconds() / res.WarmSlow
	if windows == 0 {
		return nil
	}

	self := os.Getpid()
	own0, err := procCPU(self)
	if err != nil {
		return err
	}
	host0, err := procCPU(h.pid)
	if err != nil {
		return err
	}
	start := time.Now()
	if traceMode {
		smp.begin(start)
	}
	recs := phase(0, windows*slotsPerWindow, traceMode, start)
	if traceMode {
		smp.end()
	}
	host1, err := procCPU(h.pid)
	if err != nil {
		return err
	}
	own1, err := procCPU(self)
	if err != nil {
		return err
	}
	if res.RSSPeakMB, err = procHWM(h.pid); err != nil {
		return err
	}
	var slow []float64
	slots := fold(recs)
	slow, res.Slow = slowdowns(slots)
	var plain, traced, unscaled []float64
	for s, sl := range slots {
		res.Ops += sl.Ops
		res.RefSeconds += sl.Cal.Seconds()
		if sl.Work == 0 {
			continue
		}
		rate := float64(sl.Ops) * float64(len(units)) / sl.Work.Seconds()
		if traceMode && s/slotsPerWindow%2 == 0 {
			traced = append(traced, rate*slow[s])
		} else {
			plain = append(plain, rate*slow[s])
			unscaled = append(unscaled, rate)
		}
	}
	res.Throughput, res.Traced, res.Unscaled = median(plain), median(traced), median(unscaled)
	// This process ran the reference; whether it also hosts the structure
	// decides whose CPU the rest of its time is.
	res.CPUSeconds = host1 - host0
	if own := own1 - own0 - res.RefSeconds; h.pid == self {
		res.CPUSeconds = own
	} else {
		res.ClientCPU = own
	}
	if traceMode {
		if smp.err != nil {
			return fmt.Errorf("counter sampler: %w", smp.err)
		}
		res.Counts = summarize(smp.samples, res.Ops, float64(windows))
	}
	var lat []float64
	for _, rec := range recs {
		for i, d := range rec.lat {
			lat = append(lat, float64(d)/1e3/slow[rec.latSlot[i]])
		}
	}
	res.LatSamples = len(lat)
	if len(lat) > 0 {
		slices.Sort(lat)
		res.LatP50Us, res.LatP99Us = lat[len(lat)/2], lat[len(lat)*99/100]
	}
	return nil
}

// refNominal is the reference's speed on this class of box when it is quiet,
// in chunks per second over all workers. Timings are scaled to it, so that a
// reported second is a second of a quiet box. It fixes the scale only: the
// same constant multiplies every run.
const refNominal = 70000.0

// refNominalSolo is the same for one goroutine on an otherwise idle box, as
// the layers run it.
const refNominalSolo = 37000.0

// slowdowns is how much slower than nominal the reference ran in each slot,
// and the median of that: the factor by which to shrink a timing taken then.
// A slot in which the reference did not run gets the median; the median is 1
// if it never ran.
func slowdowns(slots []slot) (each []float64, med float64) {
	var ran []float64
	each = make([]float64, len(slots))
	for s, sl := range slots {
		if sl.Chunks > 0 {
			each[s] = refNominal / (float64(sl.Chunks) * workers / sl.Cal.Seconds())
			ran = append(ran, each[s])
		}
	}
	if med = median(ran); med == 0 {
		med = 1
	}
	for s := range each {
		if each[s] == 0 {
			each[s] = med
		}
	}
	return each, med
}

// median of a copy of v; 0 for an empty slice.
func median[T int64 | float64](v []T) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (float64(s[n/2-1]) + float64(s[n/2])) / 2
	}
	return float64(s[len(s)/2])
}

// procCPU is the user+system CPU time a process has used, in seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14 and stime 15, in clock ticks of 1/100 s.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return float64(ut+st) / 100, nil
}

// procHWM is a process's peak resident set size (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM %q", v)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
