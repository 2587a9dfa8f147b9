package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"qsense"
	"qsense/internal/workload"
)

// The same-key race probe. Two goroutines doing unpartitioned Put/Delete on
// one SkipMap have been seen to die with "mem: get violation" on two real
// cores; the workloads route around that by partitioning writers. The probe
// records whether it still happens, so that a later fix has a number to bring
// to zero. It gates nothing.

const (
	probeRuns    = 3
	probeSeconds = 5
	probeCrash   = "mem: get violation"
)

// probeChild runs sp's mix with colliding writers and no recover.
func probeChild(sp spec, seed uint64, d time.Duration) {
	m, err := qsense.NewSkipMap(qsense.Options{})
	if err != nil {
		fatal(err)
	}
	if err := libPrefill(m, sp, seed); err != nil {
		fatal(err)
	}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := m.Acquire()
			if err != nil {
				fatal(err)
			}
			defer h.Release()
			gen := newGenerator(sp, seed, i)
			gen.shared = true
			var val, scratch []byte
			for n := 0; n%1024 != 0 || time.Now().Before(deadline); n++ {
				switch o := gen.next(); o.kind {
				case opGet:
					scratch, _ = h.GetAppend(o.key, scratch[:0])
				case opSet:
					val = workload.AppendPayload(val[:0], o.key, o.salt, valueSize)
					h.Put(o.key, val)
				default:
					h.Delete(o.key)
				}
			}
		}()
	}
	wg.Wait()
	m.Close()
}

// raceProbe runs the probe child probeRuns times and counts the crashes.
func raceProbe(c config) (crashes int, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	for i := 0; i < c.probeRuns(); i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(c.probeSeconds()+10)*time.Second)
		cmd := exec.CommandContext(ctx, self, "-role", "probe", "-workload", "lib-mixed",
			"-seed", strconv.FormatUint(c.seed+uint64(i), 10), "-seconds", strconv.Itoa(c.probeSeconds()))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		runErr := cmd.Run()
		cancel()
		switch {
		case runErr == nil:
		case bytes.Contains(stderr.Bytes(), []byte(probeCrash)):
			crashes++
		default:
			return crashes, fmt.Errorf("race probe child: %w: %s", runErr, stderr.Bytes())
		}
	}
	return crashes, nil
}
