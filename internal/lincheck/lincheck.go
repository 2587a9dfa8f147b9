// Package lincheck decides whether a recorded history of map operations is
// linearizable: whether the operations, each taking effect at one instant
// between its call and its return, could have produced the results their
// callers saw. It is test equipment — a recorder the test wraps around the
// real handles (one Log per goroutine, a monotonic clock, nothing on the
// structure's own path) and a Wing–Gong search with Lowe's memoisation
// over what was recorded.
//
// Linearizability is compositional (Herlihy & Wing's locality; Horn &
// Kroening's P-compositionality): a map history is linearizable iff each
// key's sub-history is, and a key's state is just (present, value). So
// Check splits the history by key and searches each part on its own, which
// keeps the search small at any history length as long as the number of
// operations in flight on ONE key stays small — the worker count.
//
// Only the map model exists so far; queue, stack and client-observed RESP
// histories (a -BUSY or timed-out command may or may not have taken effect)
// are ROADMAP item 1's remaining half.
package lincheck

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind is a map operation.
type Kind uint8

const (
	Get Kind = iota // Out, OK: the value read, whether the key was present
	Put             // Arg: the value written; OK: the key was newly inserted
	Del             // OK: the key was present and this call removed it
)

func (k Kind) String() string { return [...]string{"get", "put", "del"}[k] }

// Op is one completed operation as its caller saw it. Values are compared as
// uint64: a test that stores bytes records a fingerprint of them, and writes
// distinct values so that a stale read cannot pass for a fresh one.
type Op struct {
	Who          int // the Log it came from, for the report
	Kind         Kind
	Key          int64
	Arg, Out     uint64
	OK           bool
	Call, Return int64 // ns on the history's clock; Call < Return
}

func (o Op) String() string {
	s := fmt.Sprintf("[%d..%d] w%d %s(%d", o.Call, o.Return, o.Who, o.Kind, o.Key)
	switch o.Kind {
	case Get:
		return s + fmt.Sprintf(") = %#x, %v", o.Out, o.OK)
	case Put:
		return s + fmt.Sprintf(", %#x) = %v", o.Arg, o.OK)
	}
	return s + fmt.Sprintf(") = %v", o.OK)
}

// A Clock stamps calls and returns: one per history, shared by its Logs.
type Clock struct{ base time.Time }

func NewClock() *Clock { return &Clock{time.Now()} }

// Now is monotonic (time.Since reads the monotonic clock) and always even,
// so that Record can put a return strictly after its call (Call+1) on a
// clock too coarse to separate them without overtaking any later reading.
func (c *Clock) Now() int64 { return int64(time.Since(c.base)) &^ 1 }

// Log is one goroutine's record. It is not safe for concurrent use; give
// each worker its own and hand them all to Check.
type Log struct {
	Who   int
	Clock *Clock
	Ops   []Op
}

// Record runs op between two clock readings and appends what it reports:
// op fills in Arg/Out/OK of the Op it is given.
func (l *Log) Record(kind Kind, key int64, op func(*Op)) {
	o := Op{Who: l.Who, Kind: kind, Key: key, Call: l.Clock.Now()}
	op(&o)
	o.Return = max(l.Clock.Now(), o.Call+1)
	l.Ops = append(l.Ops, o)
}

// context is how many operations before the suspect an error shows.
const context = 12

// Check reports nil if the union of the logs is a linearizable history of a
// map that started empty, or an error naming the first key (in key order)
// whose sub-history is not and the operation the search could not get past:
// the one whose return it reached, with the most operations linearized,
// before a place for it was found.
func Check(logs ...*Log) error {
	byKey := map[int64][]Op{}
	for _, l := range logs {
		for _, o := range l.Ops {
			byKey[o.Key] = append(byKey[o.Key], o)
		}
	}
	keys := make([]int64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		ops := byKey[k]
		sort.Slice(ops, func(i, j int) bool { return ops[i].Call < ops[j].Call })
		if ok, stuck := linearizable(ops); !ok {
			var b strings.Builder
			fmt.Fprintf(&b, "lincheck: key %d: no linearization of its %d operations; the search got furthest before\n  %v\nwhich follows, in call order:", k, len(ops), ops[stuck])
			for _, o := range ops[max(0, stuck-context):stuck] {
				b.WriteString("\n  " + o.String())
			}
			return fmt.Errorf("%s", b.String())
		}
	}
	return nil
}

// state is one key of the map.
type state struct {
	present bool
	val     uint64
}

// apply is the sequential specification: whether o's result is what a map
// in state s returns, and the state it leaves.
func (s state) apply(o Op) (state, bool) {
	switch o.Kind {
	case Get:
		return s, o.OK == s.present && (!o.OK || o.Out == s.val)
	case Put:
		return state{true, o.Arg}, o.OK == !s.present
	default:
		return state{}, o.OK == s.present
	}
}

// event is a call or a return in the doubly linked, time-ordered list the
// search edits: linearizing an operation lifts both its events out,
// backtracking puts them back.
type event struct {
	op         int    // index into ops
	ret        *event // on a call: its return
	prev, next *event
}

// linearizable is Wing & Gong's search as Lowe arranged it: walk the event
// list from the front; a call whose result the model accepts is linearized
// next (both events lifted, search restarts at the front) unless the
// resulting (set linearized, state) was already explored; a return reached
// without its call linearized means everything still ahead must wait for an
// operation that is already over, so undo the last choice and go on from
// the event after it. The history is linearizable iff the list empties;
// when it is not, stuck is the operation whose return stopped the deepest
// attempt.
func linearizable(ops []Op) (ok bool, stuck int) {
	type stamp struct {
		t   int64
		ret bool
		op  int
	}
	stamps := make([]stamp, 0, 2*len(ops))
	for i, o := range ops {
		stamps = append(stamps, stamp{o.Call, false, i}, stamp{o.Return, true, i})
	}
	// At equal instants calls go first: the two operations count as
	// overlapping, which only admits more orders.
	sort.Slice(stamps, func(i, j int) bool {
		if stamps[i].t != stamps[j].t {
			return stamps[i].t < stamps[j].t
		}
		return !stamps[i].ret && stamps[j].ret
	})
	head := &event{op: -1}
	calls := make([]*event, len(ops))
	tail := head
	for _, st := range stamps {
		e := &event{op: st.op, prev: tail}
		tail.next, tail = e, e
		if st.ret {
			calls[st.op].ret = e
		} else {
			calls[st.op] = e
		}
	}

	type choice struct {
		call *event
		was  state
	}
	var (
		chosen  []choice
		deepest int
		cur     state
		done    = make([]byte, (len(ops)+7)/8) // bitset of linearized operations
		seen    = map[string]bool{}
	)
	memo := func(s state) string { return fmt.Sprintf("%s|%v|%x", done, s.present, s.val) }
	for e := head.next; e != nil; {
		if e.ret != nil { // a call
			if next, ok := cur.apply(ops[e.op]); ok {
				done[e.op/8] |= 1 << (e.op % 8)
				if key := memo(next); !seen[key] {
					seen[key] = true
					chosen = append(chosen, choice{e, cur})
					cur = next
					lift(e)
					e = head.next
					continue
				}
				done[e.op/8] &^= 1 << (e.op % 8)
			}
			e = e.next
			continue
		}
		if len(chosen) >= deepest {
			deepest, stuck = len(chosen), e.op
		}
		if len(chosen) == 0 {
			return false, stuck
		}
		last := chosen[len(chosen)-1]
		chosen = chosen[:len(chosen)-1]
		cur = last.was
		done[last.call.op/8] &^= 1 << (last.call.op % 8)
		unlift(last.call)
		e = last.call.next
	}
	return true, 0
}

func lift(call *event) {
	call.prev.next = call.next
	call.next.prev = call.prev
	r := call.ret
	r.prev.next = r.next
	if r.next != nil {
		r.next.prev = r.prev
	}
}

func unlift(call *event) {
	r := call.ret
	r.prev.next = r
	if r.next != nil {
		r.next.prev = r
	}
	call.prev.next = call
	call.next.prev = call
}
