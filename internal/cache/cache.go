// Package cache implements the behavioral (hit/miss) cache model used for
// the conventional L1 caches and the unified L2: set-associative with true
// LRU replacement, write-back/write-allocate, and full statistics. It is the
// SimpleScalar cache-module stand-in; timing lives in internal/cpu, energy
// in internal/cacti and internal/energy.
package cache

import "fmt"

// Config describes a cache. All three shape fields must be powers of two
// where applicable.
type Config struct {
	Name       string
	SizeBytes  int
	BlockBytes int
	Assoc      int
}

// Check validates the configuration.
func (c Config) Check() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("cache %s: size %d not a positive power of two", c.Name, c.SizeBytes)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cache %s: block %d not a positive power of two", c.Name, c.BlockBytes)
	case c.Assoc < 1:
		return fmt.Errorf("cache %s: assoc %d < 1", c.Name, c.Assoc)
	case c.SizeBytes < c.BlockBytes*c.Assoc:
		return fmt.Errorf("cache %s: size %d below one set (%d)", c.Name, c.SizeBytes, c.BlockBytes*c.Assoc)
	case c.SizeBytes%(c.BlockBytes*c.Assoc) != 0 || c.Sets()&(c.Sets()-1) != 0:
		// Mask-based indexing requires a power-of-two set count.
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, c.Sets())
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Assoc) }

// OffsetBits returns log2(BlockBytes).
func (c Config) OffsetBits() uint {
	b := uint(0)
	for v := c.BlockBytes; v > 1; v >>= 1 {
		b++
	}
	return b
}

// Stats collects access counts.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns Misses/Accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative write-back cache. It is not safe for
// concurrent use; each simulated core owns its caches.
type Cache struct {
	cfg        Config
	sets       int
	assoc      int
	offsetBits uint
	indexMask  uint64

	// Frame state, sets*assoc entries, way-major within a set.
	tags    []uint64 // full block address (block-aligned), compared in full
	valid   []bool
	dirty   []bool
	lastUse []uint64

	stamp uint64
	stats Stats
}

// New builds a cache; it panics on an invalid config (a construction-time
// programming error, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	n := cfg.Sets() * cfg.Assoc
	return &Cache{
		cfg:        cfg,
		sets:       cfg.Sets(),
		assoc:      cfg.Assoc,
		offsetBits: cfg.OffsetBits(),
		indexMask:  uint64(cfg.Sets() - 1),
		tags:       make([]uint64, n),
		valid:      make([]bool, n),
		dirty:      make([]bool, n),
		lastUse:    make([]uint64, n),
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset restores the cache to its just-constructed state while keeping its
// allocated frame arrays, so one instance can serve many runs.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.valid)
	clear(c.dirty)
	clear(c.lastUse)
	c.stamp = 0
	c.stats = Stats{}
}

// CopyFrom makes c's frame state and statistics a copy of src's; both
// caches must have the same geometry.
func (c *Cache) CopyFrom(src *Cache) {
	if len(c.tags) != len(src.tags) || c.assoc != src.assoc {
		panic("cache: CopyFrom between caches of different geometry")
	}
	copy(c.tags, src.tags)
	copy(c.valid, src.valid)
	copy(c.dirty, src.dirty)
	copy(c.lastUse, src.lastUse)
	c.stamp = src.stamp
	c.stats = src.stats
}

// Block converts a byte address to a block address.
func (c *Cache) Block(addr uint64) uint64 { return addr >> c.offsetBits }

// AccessResult reports what one access did.
type AccessResult struct {
	Hit bool
	// WritebackBlock is the block address of a dirty victim written back,
	// valid only when Writeback is true.
	Writeback      bool
	WritebackBlock uint64
}

// Access performs a read (write=false) or write (write=true) of the block
// containing addr, with write-allocate and write-back semantics, and
// returns what happened. Misses fill the block immediately (timing is the
// caller's concern).
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	return c.AccessBlock(c.Block(addr), write)
}

// AccessBlock is Access for a pre-computed block address.
func (c *Cache) AccessBlock(block uint64, write bool) AccessResult {
	c.stats.Accesses++
	c.stamp++
	set := int(block & c.indexMask)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == block {
			c.lastUse[i] = c.stamp
			if write {
				c.dirty[i] = true
			}
			return AccessResult{Hit: true}
		}
	}
	c.stats.Misses++
	// Choose a victim: first invalid way, else true LRU.
	victim := base
	found := false
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			found = true
			break
		}
	}
	if !found {
		oldest := c.lastUse[base]
		victim = base
		for w := 1; w < c.assoc; w++ {
			i := base + w
			if c.lastUse[i] < oldest {
				oldest = c.lastUse[i]
				victim = i
			}
		}
	}
	res := AccessResult{}
	if c.valid[victim] {
		c.stats.Evictions++
		if c.dirty[victim] {
			c.stats.Writebacks++
			res.Writeback = true
			res.WritebackBlock = c.tags[victim]
		}
	}
	c.tags[victim] = block
	c.valid[victim] = true
	c.dirty[victim] = write
	c.lastUse[victim] = c.stamp
	return res
}

// Probe reports whether the block containing addr is present without
// touching replacement state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	block := c.Block(addr)
	set := int(block & c.indexMask)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == block {
			return true
		}
	}
	return false
}

// InvalidateAll flushes the cache (no writebacks are performed; the caller
// decides whether dirty data matters, as i-cache flushes do not).
func (c *Cache) InvalidateAll() {
	for i := range c.valid {
		c.valid[i] = false
		c.dirty[i] = false
	}
}

// ValidBlocks counts resident blocks (test/diagnostic helper).
func (c *Cache) ValidBlocks() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}
