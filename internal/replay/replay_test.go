package replay

import (
	"math/rand"
	"testing"
)

func TestPutLookupDelete(t *testing.T) {
	c := New[string](4)
	if _, _, ok := c.Lookup(1); ok {
		t.Fatal("lookup on empty cache hit")
	}
	c.Put(1, 7, "a")
	v, gen, ok := c.Lookup(1)
	if !ok || v != "a" || gen != 7 {
		t.Fatalf("lookup = (%q, %d, %v)", v, gen, ok)
	}
	c.Delete(1)
	if _, _, ok := c.Lookup(1); ok {
		t.Fatal("lookup after delete hit")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestFIFOEviction(t *testing.T) {
	c := New[int](3)
	for k := uint64(1); k <= 4; k++ {
		c.Put(k, 0, int(k))
	}
	if _, _, ok := c.Lookup(1); ok {
		t.Fatal("oldest entry survived eviction")
	}
	for k := uint64(2); k <= 4; k++ {
		if _, _, ok := c.Lookup(k); !ok {
			t.Fatalf("key %d evicted early", k)
		}
	}
	if c.Len() != 3 || c.Window() != 3 {
		t.Fatalf("len = %d window = %d", c.Len(), c.Window())
	}
}

// TestGenerationDisambiguation pins the property the ring-slot generation
// exists for: evicting a stale slot must not delete the fresher re-serve of
// the same key.
func TestGenerationDisambiguation(t *testing.T) {
	c := New[int](2)
	c.Put(1, 3, 30) // ring: [(1,3) _]
	c.Put(1, 7, 70) // overwrites in place; ring: [(1,3) (1,7)]
	c.Put(2, 0, 20) // evicts slot (1,3) — must NOT drop the gen-7 entry
	if v, gen, ok := c.Lookup(1); !ok || gen != 7 || v != 70 {
		t.Fatalf("gen-7 entry lost to stale slot eviction: (%d, %d, %v)", v, gen, ok)
	}
	c.Put(3, 0, 33) // evicts slot (1,7) — now the entry really goes
	if _, _, ok := c.Lookup(1); ok {
		t.Fatal("gen-7 entry survived its own slot's eviction")
	}
}

// legacyShard is a verbatim transliteration of hostagg's pre-extraction
// served/ring/ringHead logic (shard.cacheServedLocked and the handle()
// lookup), kept here as the migration-equivalence oracle.
type legacyShard struct {
	served   map[uint64]*legacyServed
	ring     []legacySlot
	ringHead int
}

type legacyServed struct {
	gen uint16
	val int
}

type legacySlot struct {
	key uint64
	gen uint16
}

func newLegacy(window int) *legacyShard {
	return &legacyShard{
		served: make(map[uint64]*legacyServed, window),
		ring:   make([]legacySlot, window),
	}
}

func (sh *legacyShard) cacheServedLocked(k uint64, gen uint16, val int) {
	slot := &sh.ring[sh.ringHead]
	if old := sh.served[slot.key]; old != nil && old.gen == slot.gen {
		delete(sh.served, slot.key)
	}
	*slot = legacySlot{key: k, gen: gen}
	sh.ringHead++
	if sh.ringHead == len(sh.ring) {
		sh.ringHead = 0
	}
	sh.served[k] = &legacyServed{gen: gen, val: val}
}

// TestMigrationEquivalence drives the extracted Cache and the legacy hostagg
// logic with the same random operation stream and asserts every observable
// (hit/miss, value, generation, live count) matches at every step.
func TestMigrationEquivalence(t *testing.T) {
	for _, window := range []int{1, 2, 7, 64} {
		rng := rand.New(rand.NewSource(int64(window) * 12345))
		c := New[int](window)
		l := newLegacy(window)
		for op := 0; op < 20000; op++ {
			k := uint64(rng.Intn(2 * window))
			switch rng.Intn(4) {
			case 0, 1: // put
				gen := uint16(rng.Intn(8))
				val := rng.Int()
				c.Put(k, gen, val)
				l.cacheServedLocked(k, gen, val)
			case 2: // lookup
				v, gen, ok := c.Lookup(k)
				lv := l.served[k]
				if ok != (lv != nil) {
					t.Fatalf("window %d op %d: hit mismatch key %d: new=%v legacy=%v", window, op, k, ok, lv != nil)
				}
				if ok && (v != lv.val || gen != lv.gen) {
					t.Fatalf("window %d op %d: value mismatch key %d: new=(%d,%d) legacy=(%d,%d)",
						window, op, k, v, gen, lv.val, lv.gen)
				}
			case 3: // delete (the "newer generation reuses the id" path)
				c.Delete(k)
				delete(l.served, k)
			}
			if c.Len() != len(l.served) {
				t.Fatalf("window %d op %d: len mismatch: new=%d legacy=%d", window, op, c.Len(), len(l.served))
			}
		}
	}
}

func TestNewPanicsOnZeroWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}

// TestPutWarmAllocatesNothing pins the by-value entries: once the map has
// seen a few windows of inserts, a Put that evicts the oldest slot and
// inserts a fresh key allocates nothing.
func TestPutWarmAllocatesNothing(t *testing.T) {
	c := New[[]byte](64)
	val := make([]byte, 16)
	next := uint64(0)
	put := func() {
		c.Put(next, uint16(next), val)
		next++
	}
	for range 10 * c.Window() {
		put()
	}
	if n := testing.AllocsPerRun(1000, put); n != 0 {
		t.Fatalf("a warm Put allocated %.2f times", n)
	}
}
