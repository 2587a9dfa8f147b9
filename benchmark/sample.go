package main

import (
	"sync"
	"time"

	"qsense"
)

// sample is one reading of the counters the layer table reports: kvd's STATS
// reply over a side connection, or SkipMap.Stats and Values in process.
type sample struct {
	Retired, Pending, Scans, ScannedRecords, EpochAdvances int64
	SwitchesToFallback, InFallback, Evictions              int64
	ArenaSize, ParkedSlots, AcquiredHandles, RoosterPasses int64
	ValueBytes, ValueSpilled, ValueRetires, StructRetires  int64
	Panics, Busy, IdleTimeouts, WriteTimeouts              int64
}

func sampleFromMap(m *qsense.SkipMap) sample {
	st, vs := m.Stats(), m.Values()
	s := sample{
		Retired: int64(st.Retired), Pending: st.Pending, Scans: int64(st.Scans),
		ScannedRecords: int64(st.ScannedRecords), EpochAdvances: int64(st.EpochAdvances),
		SwitchesToFallback: int64(st.SwitchesToFallback), Evictions: int64(st.Evictions),
		ArenaSize: int64(st.ArenaSize), ParkedSlots: int64(st.ParkedSlots),
		AcquiredHandles: int64(st.AcquiredHandles), RoosterPasses: int64(st.RoosterPasses),
		ValueBytes: vs.Bytes, ValueSpilled: vs.Spilled,
		ValueRetires: int64(vs.ValueRetires), StructRetires: int64(vs.StructRetires),
	}
	if st.InFallback {
		s.InFallback = 1
	}
	return s
}

func sampleFromStats(kv map[string]int64) sample {
	return sample{
		Retired: kv["retired"], Pending: kv["pending"], Scans: kv["scans"],
		ScannedRecords: kv["scanned_records"], EpochAdvances: kv["epoch_advances"],
		SwitchesToFallback: kv["switches_to_fallback"], InFallback: kv["in_fallback"],
		Evictions: kv["evictions"], ArenaSize: kv["arena_size"], ParkedSlots: kv["parked_slots"],
		AcquiredHandles: kv["acquired_handles"], RoosterPasses: kv["rooster_passes"],
		ValueBytes: kv["value_bytes"], ValueSpilled: kv["value_spilled"],
		ValueRetires: kv["value_retires"], StructRetires: kv["struct_retires"],
		Panics: kv["panics_recovered"], Busy: kv["busy_rejected"],
		IdleTimeouts: kv["idle_timeouts"], WriteTimeouts: kv["write_timeouts"],
	}
}

// sampler reads the counters at the start and the end of the timed phase and
// every 100 ms inside its traced (even) windows.
type sampler struct {
	read    func() (sample, error)
	samples []sample
	err     error
	stop    chan struct{}
	done    sync.WaitGroup
}

func (s *sampler) take() {
	if s.err != nil {
		return
	}
	v, err := s.read()
	if err != nil {
		s.err = err
		return
	}
	s.samples = append(s.samples, v)
}

// begin takes the first sample and starts the ticker.
func (s *sampler) begin(start time.Time) {
	s.take()
	s.stop = make(chan struct{})
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-tick.C:
				if int(now.Sub(start)/time.Second)%2 == 0 {
					s.take()
				}
			}
		}
	}()
}

// end stops the ticker and takes the last sample.
func (s *sampler) end() {
	close(s.stop)
	s.done.Wait()
	s.take()
}

// counts are the count-type layer metrics of one traced run.
type counts struct {
	RetiresPerKop, Scans, ScannedPerScan, EpochAdvances float64
	SwitchesToFallback, FallbackTimeShare               float64
	PendingP50, PendingMax, Evictions                   float64
	ArenaSize, ParkedSlots, AcquiredHandles             float64
	RoosterPassesPerS, ValueBytesLive, ValueSpilledLive float64
	ValueRetireShare                                    float64
	Panics, Busy, IdleTimeouts, WriteTimeouts, NSamples float64
}

// summarize turns the samples of a timed phase of the given length, during
// which ops verified operations completed, into counts.
func summarize(samples []sample, ops int64, seconds float64) counts {
	if len(samples) < 2 {
		return counts{}
	}
	first, last := samples[0], samples[len(samples)-1]
	c := counts{
		Scans:              float64(last.Scans - first.Scans),
		EpochAdvances:      float64(last.EpochAdvances - first.EpochAdvances),
		SwitchesToFallback: float64(last.SwitchesToFallback - first.SwitchesToFallback),
		Evictions:          float64(last.Evictions - first.Evictions),
		ArenaSize:          float64(last.ArenaSize),
		ParkedSlots:        float64(last.ParkedSlots),
		AcquiredHandles:    float64(last.AcquiredHandles),
		RoosterPassesPerS:  float64(last.RoosterPasses-first.RoosterPasses) / seconds,
		ValueBytesLive:     float64(last.ValueBytes),
		ValueSpilledLive:   float64(last.ValueSpilled),
		Panics:             float64(last.Panics - first.Panics),
		Busy:               float64(last.Busy - first.Busy),
		IdleTimeouts:       float64(last.IdleTimeouts - first.IdleTimeouts),
		WriteTimeouts:      float64(last.WriteTimeouts - first.WriteTimeouts),
		NSamples:           float64(len(samples)),
	}
	if ops > 0 {
		c.RetiresPerKop = float64(last.Retired-first.Retired) / (float64(ops) / 1000)
	}
	if c.Scans > 0 {
		c.ScannedPerScan = float64(last.ScannedRecords-first.ScannedRecords) / c.Scans
	}
	vr, sr := float64(last.ValueRetires-first.ValueRetires), float64(last.StructRetires-first.StructRetires)
	if vr+sr > 0 {
		c.ValueRetireShare = vr / (vr + sr)
	}
	pending := make([]int64, len(samples))
	var fallback int64
	for i, s := range samples {
		pending[i] = s.Pending
		c.PendingMax = max(c.PendingMax, float64(s.Pending))
		fallback += s.InFallback
	}
	c.PendingP50 = median(pending)
	c.FallbackTimeShare = float64(fallback) / float64(len(samples))
	return c
}
