package rooster

import (
	"sync/atomic"
	"testing"
	"time"
)

type countTarget struct{ flushes atomic.Int64 }

func (c *countTarget) FlushHP() { c.flushes.Add(1) }

func TestStepFlushesAllTargets(t *testing.T) {
	m := NewManager(Config{})
	var ts [5]countTarget
	for i := range ts {
		m.Register(&ts[i])
	}
	m.Step()
	m.Step()
	for i := range ts {
		if got := ts[i].flushes.Load(); got != 2 {
			t.Fatalf("target %d flushed %d times, want 2", i, got)
		}
	}
	if m.Tick() != 2 {
		t.Fatalf("tick = %d, want 2", m.Tick())
	}
}

func TestTickAdvancesAfterPass(t *testing.T) {
	m := NewManager(Config{})
	if m.Tick() != 0 {
		t.Fatal("fresh manager must be at tick 0")
	}
	// A target that observes the tick during its own flush must see the
	// pre-increment value: the tick only advances once the pass completes.
	seen := make([]uint64, 0, 3)
	m.Register(flushFunc(func() { seen = append(seen, m.Tick()) }))
	for i := 0; i < 3; i++ {
		m.Step()
	}
	for i, s := range seen {
		if s != uint64(i) {
			t.Fatalf("flush %d saw tick %d; tick must advance only after the pass", i, s)
		}
	}
}

type flushFunc func()

func (f flushFunc) FlushHP() { f() }

func TestOldEnough(t *testing.T) {
	m := NewManager(Config{})
	stamp := m.Tick()
	if m.OldEnough(stamp) {
		t.Fatal("node cannot be old enough at its own stamp")
	}
	m.Step()
	if m.OldEnough(stamp) {
		t.Fatal("one pass is not enough (the pass may have started before the stamp)")
	}
	m.Step()
	if !m.OldEnough(stamp) {
		t.Fatal("after two complete passes the node must be old enough")
	}
}

func TestHooksRunAtPeriod(t *testing.T) {
	m := NewManager(Config{})
	var every1, every3 int
	m.AddHook(1, func() { every1++ })
	m.AddHook(3, func() { every3++ })
	for i := 0; i < 9; i++ {
		m.Step()
	}
	if every1 != 9 {
		t.Fatalf("every-1 hook ran %d times, want 9", every1)
	}
	if every3 != 3 {
		t.Fatalf("every-3 hook ran %d times, want 3", every3)
	}
}

func TestHookNonPositivePeriod(t *testing.T) {
	m := NewManager(Config{})
	n := 0
	m.AddHook(0, func() { n++ })
	m.Step()
	if n != 1 {
		t.Fatal("period<=0 must default to every pass")
	}
}

func TestStartStop(t *testing.T) {
	m := NewManager(Config{Interval: time.Millisecond})
	var tgt countTarget
	m.Register(&tgt)
	m.Start()
	deadline := time.After(2 * time.Second)
	for m.Tick() < 3 {
		select {
		case <-deadline:
			t.Fatal("timer-driven passes did not advance the tick")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	m.Stop()
	tickAtStop := m.Tick()
	time.Sleep(10 * time.Millisecond)
	if m.Tick() != tickAtStop {
		t.Fatal("passes continued after Stop")
	}
	// Stop is idempotent; Start works again after Stop.
	m.Stop()
	m.Start()
	m.Stop()
}

func TestStartTwicePanics(t *testing.T) {
	m := NewManager(Config{Interval: time.Hour})
	m.Start()
	defer m.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start must panic")
		}
	}()
	m.Start()
}

func TestDefaults(t *testing.T) {
	m := NewManager(Config{})
	if m.cfg.Interval != 2*time.Millisecond {
		t.Fatalf("default interval = %v", m.cfg.Interval)
	}
}
