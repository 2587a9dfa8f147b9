package main

// The reference. The box this benchmark runs on is shared: its speed moves by
// tens of percent over minutes as neighbours come and go, and every timing
// moves with it. So each worker interleaves its work with slices of a fixed
// computation that no change to the repository can touch, and times are
// reported at the speed the reference ran at (README "Reference speed").
//
// What the reference computes decides how well it tracks the workloads. On
// this box a plain arithmetic loop barely notices the neighbours, and a walk
// through a large array notices them far more than the workloads do. A small
// key→value skip list of its own, driven with a skewed GET/SET/DEL mix over
// 64-byte values, slows and speeds in step with all four workloads; that is
// the reference. It is single-threaded, private to its worker and frozen:
// index links in one slab, so the garbage collector has nothing to trace.

const (
	refLevels = 16
	refKeys   = 1 << 16
	chunkOps  = 64 // operations in one chunk, the unit of reference work
)

type refNode struct {
	key  int64
	val  [valueSize]byte
	next [refLevels]uint32
	top  int32
}

// reference is one worker's private skip list. Node 0 is the head.
type reference struct {
	nodes []refNode
	free  []uint32
	rng   uint64
	out   [valueSize]byte
	preds [refLevels]uint32
}

func newReference() *reference {
	r := &reference{nodes: make([]refNode, 1, refKeys+1), rng: 88172645463325252}
	r.nodes[0].key = -1
	for k := int64(0); k < refKeys; k += 2 {
		r.put(k)
	}
	return r
}

// rand is xorshift64: the reference owns its generator too.
func (r *reference) rand() uint64 {
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	return r.rng
}

// find returns the first node with a key >= key (0 for none) and leaves its
// predecessor at every level in preds.
func (r *reference) find(key int64) uint32 {
	cur := uint32(0)
	for lv := refLevels - 1; lv >= 0; lv-- {
		for {
			nx := r.nodes[cur].next[lv]
			if nx == 0 || r.nodes[nx].key >= key {
				break
			}
			cur = nx
		}
		r.preds[lv] = cur
	}
	return r.nodes[cur].next[0]
}

func (r *reference) get(key int64) {
	if n := r.find(key); n != 0 && r.nodes[n].key == key {
		r.out = r.nodes[n].val
	}
}

func (r *reference) put(key int64) {
	n := r.find(key)
	if n == 0 || r.nodes[n].key != key {
		if f := len(r.free); f > 0 {
			n, r.free = r.free[f-1], r.free[:f-1]
		} else {
			r.nodes = append(r.nodes, refNode{})
			n = uint32(len(r.nodes) - 1)
		}
		top := 1
		for bits := r.rand(); bits&1 == 1 && top < refLevels; bits >>= 1 {
			top++
		}
		nd := &r.nodes[n]
		nd.key, nd.top = key, int32(top)
		for lv := 0; lv < top; lv++ {
			p := r.preds[lv]
			nd.next[lv] = r.nodes[p].next[lv]
			r.nodes[p].next[lv] = n
		}
	}
	val := &r.nodes[n].val
	for i := range val {
		val[i] = byte(key) + byte(i)
	}
}

func (r *reference) del(key int64) {
	n := r.find(key)
	if n == 0 || r.nodes[n].key != key {
		return
	}
	for lv := 0; lv < int(r.nodes[n].top); lv++ {
		r.nodes[r.preds[lv]].next[lv] = r.nodes[n].next[lv]
	}
	r.free = append(r.free, n)
}

// chunk runs chunkOps operations: half GETs, a quarter each SET and DEL, on
// keys skewed by squaring a uniform draw and scattered like the workloads'.
func (r *reference) chunk() {
	for i := 0; i < chunkOps; i++ {
		bits := r.rand()
		u := float64(bits>>11) / (1 << 53)
		key := int64(u*u*refKeys) * 0x9e3779b1 & (refKeys - 1)
		switch bits & 3 {
		case 0:
			r.put(key)
		case 1:
			r.del(key)
		default:
			r.get(key)
		}
	}
}
