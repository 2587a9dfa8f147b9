//go:build qsensedebug

package reclaim

import (
	"strings"
	"testing"

	"qsense/internal/mem"
)

// TestLeaveAssertsUnprotected: in a qsensedebug build a QSense guard that
// Leaves with a protection still published panics at the Leave, and one that
// cleared its hazard pointers first leaves quietly.
func TestLeaveAssertsUnprotected(t *testing.T) {
	d, err := New("qsense", Config{Workers: 1, HPs: 2, Free: func(mem.Ref) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	m := g.(Leaver)
	g.Begin()
	g.Protect(1, mem.Ref(1<<32))
	func() {
		defer func() {
			if s, ok := recover().(string); !ok || !strings.HasPrefix(s, "reclaim: Leave with hazard slot 1 still holding") {
				t.Errorf("Leave with slot 1 published: panic %q, want the Leave assertion", s)
			}
		}()
		m.Leave()
	}()
	g.ClearHPs()
	m.Leave()
	m.Join()
	d.Release(g)
}
