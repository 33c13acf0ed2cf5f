// Package replay provides a small, generic served-result replay cache: a
// fixed-size window of recently served values keyed by a 64-bit key and a
// 16-bit generation, with FIFO eviction. hostagg's table (ReplayWindow) and
// trioml's aggregator keep their result datagrams in one, to answer
// retransmits for already-served blocks.
//
//   - Bounded memory: the window is fixed at construction; inserting the
//     (window+1)-th entry evicts the oldest, whatever its age. There is no
//     per-entry timer.
//   - Generation disambiguation: a key may be re-served under a newer
//     generation while an old ring slot still names it. Each ring slot
//     records the generation it inserted, and eviction only deletes the
//     map entry when the generations still match — evicting slot
//     (k, gen=3) must not drop the fresher (k, gen=7) entry that
//     overwrote it.
//
// The cache is not goroutine-safe; hostagg guards it with the block table's
// lock, and a PFE runs its aggregator on one event loop.
package replay

// Cache retains the last Window distinct inserts, mapping key -> (gen, V).
type Cache[V any] struct {
	entries map[uint64]entry[V] // by value: a warm map takes a Put without allocating
	ring    []slot
	head    int
}

type entry[V any] struct {
	gen uint16
	val V
}

type slot struct {
	key uint64
	gen uint16
}

// New returns a cache retaining the last window inserts. window must be
// positive — callers model "replay disabled" as a nil *Cache, matching
// hostagg's ReplayWindow == 0.
func New[V any](window int) *Cache[V] {
	if window <= 0 {
		panic("replay: window must be positive")
	}
	return &Cache[V]{
		entries: make(map[uint64]entry[V], window),
		ring:    make([]slot, window),
	}
}

// Put inserts (key, gen, v), evicting the oldest ring slot. Re-inserting a
// live key overwrites its value and generation in place; the stale ring
// slot left behind is neutralized by the generation check at eviction time.
func (c *Cache[V]) Put(key uint64, gen uint16, v V) {
	s := &c.ring[c.head]
	if old, ok := c.entries[s.key]; ok && old.gen == s.gen {
		delete(c.entries, s.key)
	}
	*s = slot{key: key, gen: gen}
	c.head++
	if c.head == len(c.ring) {
		c.head = 0
	}
	c.entries[key] = entry[V]{gen: gen, val: v}
}

// Lookup returns the cached value and its generation.
func (c *Cache[V]) Lookup(key uint64) (V, uint16, bool) {
	e, ok := c.entries[key]
	return e.val, e.gen, ok
}

// Delete drops the entry for key, if any. The ring slot that inserted it
// stays behind and is neutralized by the generation check — or, if the key
// is re-inserted under the same generation before that slot comes around,
// the slot simply evicts the re-insert early, which the window never
// promised to avoid.
func (c *Cache[V]) Delete(key uint64) {
	delete(c.entries, key)
}

// Len reports the number of live entries (≤ Window).
func (c *Cache[V]) Len() int { return len(c.entries) }

// Window reports the configured window size.
func (c *Cache[V]) Window() int { return len(c.ring) }
