package lincheck

import (
	"strings"
	"testing"
)

// h builds a history from (who, kind, key, arg/out, ok, call, return) rows.
func h(rows ...Op) *Log { return &Log{Ops: rows} }

func TestCheck(t *testing.T) {
	for _, c := range []struct {
		name string
		ops  []Op
		bad  string // substring of the error; "" means linearizable
	}{
		{"sequential", []Op{
			{Kind: Get, Key: 1, Call: 0, Return: 1},
			{Kind: Put, Key: 1, Arg: 7, OK: true, Call: 2, Return: 3},
			{Kind: Get, Key: 1, Out: 7, OK: true, Call: 4, Return: 5},
			{Kind: Put, Key: 1, Arg: 8, Call: 6, Return: 7},
			{Kind: Del, Key: 1, OK: true, Call: 8, Return: 9},
			{Kind: Del, Key: 1, Call: 10, Return: 11},
		}, ""},
		{"keys are independent", []Op{
			{Kind: Put, Key: 1, Arg: 7, OK: true, Call: 0, Return: 1},
			{Kind: Get, Key: 2, Call: 2, Return: 3},
		}, ""},
		{"absent after a finished put", []Op{
			{Kind: Put, Key: 1, Arg: 7, OK: true, Call: 0, Return: 1},
			{Kind: Get, Key: 1, Call: 2, Return: 3},
		}, "key 1"},
		{"stale value after a finished overwrite", []Op{
			{Kind: Put, Key: 1, Arg: 7, OK: true, Call: 0, Return: 1},
			{Kind: Put, Key: 1, Arg: 8, Call: 2, Return: 3},
			{Kind: Get, Key: 1, Out: 7, OK: true, Call: 4, Return: 5},
		}, "key 1"},
		{"stale value during the overwrite", []Op{
			{Kind: Put, Key: 1, Arg: 7, OK: true, Call: 0, Return: 1},
			{Kind: Put, Key: 1, Arg: 8, Call: 2, Return: 6},
			{Kind: Get, Key: 1, Out: 7, OK: true, Call: 4, Return: 5},
		}, ""},
		{"two inserts of one key, no delete", []Op{
			{Kind: Put, Key: 1, Arg: 7, OK: true, Call: 0, Return: 3},
			{Kind: Put, Key: 1, Arg: 8, OK: true, Call: 1, Return: 2},
		}, "key 1"},
		// The skip list's update-then-delete: a Put that loses to a
		// concurrent Delete reports "replaced" and the key ends absent.
		{"update-then-delete", []Op{
			{Kind: Put, Key: 1, Arg: 7, OK: true, Call: 0, Return: 1},
			{Who: 1, Kind: Del, Key: 1, OK: true, Call: 2, Return: 5},
			{Who: 2, Kind: Put, Key: 1, Arg: 8, Call: 3, Return: 4},
			{Kind: Get, Key: 1, Call: 6, Return: 7},
		}, ""},
		{"update after the delete returned", []Op{
			{Kind: Put, Key: 1, Arg: 7, OK: true, Call: 0, Return: 1},
			{Who: 1, Kind: Del, Key: 1, OK: true, Call: 2, Return: 3},
			{Who: 2, Kind: Put, Key: 1, Arg: 8, Call: 4, Return: 5},
		}, "key 1"},
		// Needs backtracking: the first order the search tries (w0's get
		// before w1's put) strands the second get.
		{"backtrack", []Op{
			{Who: 1, Kind: Put, Key: 1, Arg: 7, OK: true, Call: 0, Return: 10},
			{Kind: Get, Key: 1, Out: 7, OK: true, Call: 1, Return: 2},
			{Kind: Get, Key: 1, Out: 7, OK: true, Call: 3, Return: 4},
			{Who: 2, Kind: Del, Key: 1, OK: true, Call: 5, Return: 6},
			{Kind: Get, Key: 1, Call: 7, Return: 8},
		}, ""},
		{"equal instants overlap", []Op{
			{Kind: Put, Key: 1, Arg: 7, OK: true, Call: 0, Return: 2},
			{Who: 1, Kind: Get, Key: 1, Call: 2, Return: 3},
		}, ""},
	} {
		err := Check(h(c.ops...))
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad)):
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.bad)
		}
	}
}

func TestRecordOrdersCallBeforeReturn(t *testing.T) {
	l := &Log{Clock: NewClock()}
	for i := 0; i < 1000; i++ {
		l.Record(Get, 1, func(*Op) {})
	}
	for i, o := range l.Ops {
		if o.Return <= o.Call || i > 0 && o.Call < l.Ops[i-1].Call {
			t.Fatalf("op %d: %v after %v", i, o, l.Ops[max(i-1, 0)])
		}
	}
	if err := Check(l); err != nil {
		t.Fatal(err)
	}
}
