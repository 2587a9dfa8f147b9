package mem

// Cache is a per-worker allocation magazine. It batches free-list traffic so
// that workers do not contend on the pool's shared free list for every node,
// mirroring the thread-local caches of production allocators (tcmalloc and
// the per-thread buffers used by ASCYLIB's ssmem). A Cache is not safe for
// concurrent use; create one per worker.
type Cache[T any] struct {
	pool *Pool[T]
	buf  []uint32
	cap  int

	// counters (local, folded into pool stats via the pool's own counters)
	refills uint64
	spills  uint64
}

// DefaultCacheSize is the magazine capacity used when 0 is passed.
const DefaultCacheSize = 64

// NewCache returns a magazine of the given capacity bound to p.
func (p *Pool[T]) NewCache(size int) *Cache[T] {
	if size <= 0 {
		size = DefaultCacheSize
	}
	return &Cache[T]{pool: p, buf: make([]uint32, 0, size), cap: size}
}

// Alloc is Pool.Alloc served from the magazine when possible.
func (c *Cache[T]) Alloc() (Ref, *T) {
	if len(c.buf) == 0 {
		c.refill()
	}
	if n := len(c.buf); n > 0 {
		idx := c.buf[n-1]
		c.buf = c.buf[:n-1]
		s := c.pool.slotAt(idx)
		s.birth = c.pool.era.Load() // before the gen bump makes the slot visible
		gen := s.gen.Add(1)
		c.pool.allocs.Add(1)
		return makeRef(idx, gen), &s.val
	}
	return c.pool.Alloc()
}

// Free returns a slot to the magazine, spilling half to the pool when full.
// Same violation semantics as Pool.Free.
func (c *Cache[T]) Free(r Ref) {
	if r.IsNil() {
		panic("mem: free of nil Ref")
	}
	idx := r.index()
	s := c.pool.slotAt(idx)
	g := s.gen.Load()
	if g&genMask != r.gen() || g&1 == 0 {
		panic(&Violation{Op: "free", Ref: r, Want: r.gen(), Got: g & genMask})
	}
	if !s.gen.CompareAndSwap(g, g+1) {
		panic(&Violation{Op: "free", Ref: r, Want: r.gen(), Got: s.gen.Load() & genMask})
	}
	if c.pool.cfg.Poison {
		poison(&s.val)
	}
	c.pool.frees.Add(1)
	if len(c.buf) == c.cap {
		c.spill()
	}
	c.buf = append(c.buf, idx)
}

// refill moves up to half a magazine of slots from the pool's free list.
func (c *Cache[T]) refill() {
	c.refills++
	want := c.cap / 2
	for i := 0; i < want; i++ {
		idx, ok := c.pool.popFree()
		if !ok {
			break
		}
		c.buf = append(c.buf, idx)
	}
}

// spill pushes half the magazine back to the pool's free list.
func (c *Cache[T]) spill() {
	c.spills++
	half := c.cap / 2
	for _, idx := range c.buf[len(c.buf)-half:] {
		c.pool.pushFree(idx)
	}
	c.buf = c.buf[:len(c.buf)-half]
}

// Drain returns all cached slots to the pool. Call when the worker retires.
func (c *Cache[T]) Drain() {
	for _, idx := range c.buf {
		c.pool.pushFree(idx)
	}
	c.buf = c.buf[:0]
}

// Pool returns the pool this cache serves.
func (c *Cache[T]) Pool() *Pool[T] { return c.pool }
