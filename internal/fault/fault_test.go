package fault

import (
	"testing"
	"time"

	"qsense/internal/mem"
	"qsense/internal/reclaim"
)

type fnode struct{ v int }

func newPool(t *testing.T) *mem.Pool[fnode] {
	t.Helper()
	return mem.NewPool[fnode](mem.Config{MaxSlots: 1 << 18, Poison: true, Name: "fault-test"})
}

// TestFreezeUnfreezeCycle proves the injector's contract end to end on QSBR:
// arm, victim parks at the quiesce point, Resume lets it run, re-arm and the
// SAME victim parks again — a reader frozen and thawed on command.
func TestFreezeUnfreezeCycle(t *testing.T) {
	pool := newPool(t)
	inj := New()
	d, err := reclaim.NewQSBR(reclaim.Config{
		Workers: 4, HPs: 2, Q: 2,
		Free:      func(r mem.Ref) { pool.Free(r) },
		FaultHook: inj.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	g, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// Determinism: each trap is armed while the victim is provably unable
	// to reach the sync point — before the goroutine starts (cycle 0), or
	// while it is blocked on the unbuffered parked rendezvous (cycle 1).
	inj.StallNext(reclaim.FaultQuiesce)
	parked := make(chan struct{})
	resumed := make(chan struct{})
	go func() {
		for i := 0; i < 2; i++ {
			// Q=2: the second Begin of each pair crosses the quiesce
			// sync point, where the armed trap parks this goroutine.
			g.Begin()
			g.Begin()
			parked <- struct{}{}
		}
		d.Release(g)
		close(resumed)
	}()

	for cycle := 0; cycle < 2; cycle++ {
		slot, ok := inj.AwaitStalled(5 * time.Second)
		if !ok {
			t.Fatalf("cycle %d: victim never parked", cycle)
		}
		if want := reclaim.SlotIndex(g); slot != want {
			t.Fatalf("cycle %d: parked slot = %d, want %d", cycle, slot, want)
		}
		select {
		case <-parked:
			t.Fatalf("cycle %d: victim ran past the trap before Resume", cycle)
		case <-time.After(20 * time.Millisecond):
		}
		inj.Resume()
		if cycle == 0 {
			inj.StallNext(reclaim.FaultQuiesce) // re-arm before releasing the rendezvous
		}
		<-parked
	}
	select {
	case <-resumed:
	case <-time.After(5 * time.Second):
		t.Fatal("victim never finished after final Resume")
	}
	if got := inj.Stalls(); got != 2 {
		t.Fatalf("Stalls() = %d, want 2", got)
	}
}

// TestTrapIsOneShot: with the trap already sprung by a victim, other
// goroutines sail through the same sync point unstalled.
func TestTrapIsOneShot(t *testing.T) {
	pool := newPool(t)
	inj := New()
	d, err := reclaim.NewQSBR(reclaim.Config{
		Workers: 4, HPs: 2, Q: 1,
		Free:      func(r mem.Ref) { pool.Free(r) },
		FaultHook: inj.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	victim, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	inj.StallNext(reclaim.FaultQuiesce)
	victimDone := make(chan struct{})
	go func() { victim.Begin(); close(victimDone) }() // Q=1: every Begin hits the sync point
	if _, ok := inj.AwaitStalled(5 * time.Second); !ok {
		t.Fatal("victim never parked")
	}

	// A healthy guard must pass the (now disarmed) point without delay.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			healthy.Begin()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("healthy guard stalled on a one-shot trap that had already sprung")
	}
	inj.Resume()
	<-victimDone // victim fully out of Begin before the deferred Close
}

// TestDisarmAndResumeNoops: Disarm removes an unsprung trap; Resume with
// nothing armed or already resumed is a safe no-op.
func TestDisarmAndResumeNoops(t *testing.T) {
	inj := New()
	inj.Resume() // nothing armed
	inj.StallNext(reclaim.FaultProtect)
	inj.Disarm()
	if _, ok := inj.AwaitStalled(10 * time.Millisecond); ok {
		t.Fatal("disarmed trap sprang")
	}
	inj.Resume()
	inj.Resume() // double-resume
	if inj.Stalls() != 0 {
		t.Fatalf("Stalls() = %d after disarm, want 0", inj.Stalls())
	}
}

// TestRunStormRetires: the storm reaches its target and leaves no leaked
// leases behind (every guard released, domain closes cleanly).
func TestRunStormRetires(t *testing.T) {
	pool := newPool(t)
	d, err := reclaim.NewQSBR(reclaim.Config{
		Workers: 8, HPs: 2, Q: 4,
		Free: func(r mem.Ref) { pool.Free(r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	res := RunStorm(d, PoolAlloc(pool), StormConfig{Workers: 4, Target: 2000})
	if res.Walled {
		t.Fatal("storm hit MaxWall on a tiny target")
	}
	if res.Retired < 2000 {
		t.Fatalf("storm retired %d, want >= 2000", res.Retired)
	}
	if st := d.Stats(); st.Retired < 2000 {
		t.Fatalf("domain saw %d retires, want >= 2000", st.Retired)
	}
}
