package hasheng

import (
	"testing"
	"testing/quick"

	"github.com/trioml/triogo/internal/sim"
)

func TestInsertLookupDelete(t *testing.T) {
	tb := NewTable(Config{})
	ok, _ := tb.Insert(0, 42, 1000)
	if !ok {
		t.Fatal("insert failed")
	}
	v, ok, _ := tb.Lookup(0, 42)
	if !ok || v != 1000 {
		t.Fatalf("lookup = (%d,%v)", v, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
	ok, _ = tb.Delete(0, 42)
	if !ok {
		t.Fatal("delete failed")
	}
	if _, ok, _ := tb.Lookup(0, 42); ok {
		t.Fatal("lookup after delete succeeded")
	}
	if tb.Len() != 0 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	tb := NewTable(Config{})
	tb.Insert(0, 7, 1)
	if ok, _ := tb.Insert(0, 7, 2); ok {
		t.Fatal("duplicate insert succeeded")
	}
	if v, _, _ := tb.Lookup(0, 7); v != 1 {
		t.Fatalf("value overwritten: %d", v)
	}
}

func TestDeleteMissingKey(t *testing.T) {
	tb := NewTable(Config{})
	if ok, _ := tb.Delete(0, 123); ok {
		t.Fatal("delete of missing key succeeded")
	}
}

func TestREFFlagLifecycle(t *testing.T) {
	tb := NewTable(Config{})
	tb.Insert(0, 1, 10)
	// REF is set on creation (§5).
	if ref, ok := tb.Ref(1); !ok || !ref {
		t.Fatal("REF not set on insert")
	}
	// A scan clears it.
	tb.ScanPartition(0, 0, 1, func(k, v uint64, ref bool) ScanAction { return ScanClearRef })
	if ref, _ := tb.Ref(1); ref {
		t.Fatal("REF not cleared by scan")
	}
	// A lookup re-sets it.
	tb.Lookup(0, 1)
	if ref, _ := tb.Ref(1); !ref {
		t.Fatal("REF not set by lookup")
	}
}

func TestAgedRecordDetection(t *testing.T) {
	// The straggler-detection idiom: two sweeps with no intervening lookup
	// find a record whose REF flag is clear — it has aged out.
	tb := NewTable(Config{})
	tb.Insert(0, 5, 50)
	aged := 0
	sweep := func() {
		tb.ScanPartition(0, 0, 1, func(k, v uint64, ref bool) ScanAction {
			if !ref {
				aged++
				return ScanDelete
			}
			return ScanClearRef
		})
	}
	sweep()
	if aged != 0 {
		t.Fatal("fresh record reported aged")
	}
	sweep()
	if aged != 1 {
		t.Fatalf("aged = %d after second sweep", aged)
	}
	if tb.Len() != 0 {
		t.Fatal("aged record not deleted")
	}
}

func TestLookupBetweenSweepsPreventsAging(t *testing.T) {
	tb := NewTable(Config{})
	tb.Insert(0, 5, 50)
	aged := 0
	sweep := func() {
		tb.ScanPartition(0, 0, 1, func(k, v uint64, ref bool) ScanAction {
			if !ref {
				aged++
				return ScanDelete
			}
			return ScanClearRef
		})
	}
	for i := 0; i < 10; i++ {
		sweep()
		tb.Lookup(0, 5) // active traffic keeps re-referencing
	}
	if aged != 0 {
		t.Fatalf("active record aged out %d times", aged)
	}
}

func TestScanPartitionsCoverTableExactlyOnce(t *testing.T) {
	tb := NewTable(Config{Buckets: 256})
	const n = 1000
	for i := uint64(0); i < n; i++ {
		tb.Insert(0, i, i)
	}
	const parts = 7
	seen := make(map[uint64]int)
	total := 0
	for p := 0; p < parts; p++ {
		v, _ := tb.ScanPartition(0, p, parts, func(k, _ uint64, _ bool) ScanAction {
			seen[k]++
			return ScanKeep
		})
		total += v
	}
	if total != n {
		t.Fatalf("visited %d, want %d", total, n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %d visited %d times", k, c)
		}
	}
}

func TestScanCostScalesWithPartition(t *testing.T) {
	tb := NewTable(Config{Buckets: 1024})
	for i := uint64(0); i < 10000; i++ {
		tb.Insert(0, i, i)
	}
	_, fullDone := tb.ScanPartition(0, 0, 1, func(uint64, uint64, bool) ScanAction { return ScanKeep })
	// 100 partitions: each sweep should take roughly 1/100 of the time.
	var worst sim.Time
	for p := 0; p < 100; p++ {
		_, done := tb.ScanPartition(0, p, 100, func(uint64, uint64, bool) ScanAction { return ScanKeep })
		if done > worst {
			worst = done
		}
	}
	if worst*50 > fullDone {
		t.Fatalf("partitioned sweep %v not ≪ full sweep %v", worst, fullDone)
	}
}

func TestScanDeleteDuringIteration(t *testing.T) {
	tb := NewTable(Config{Buckets: 16})
	for i := uint64(0); i < 100; i++ {
		tb.Insert(0, i, i)
	}
	// Delete all even keys in one sweep; every record must still be visited.
	visited := 0
	tb.ScanPartition(0, 0, 1, func(k, _ uint64, _ bool) ScanAction {
		visited++
		if k%2 == 0 {
			return ScanDelete
		}
		return ScanKeep
	})
	if visited != 100 {
		t.Fatalf("visited %d", visited)
	}
	if tb.Len() != 50 {
		t.Fatalf("len = %d", tb.Len())
	}
	for i := uint64(0); i < 100; i++ {
		_, ok, _ := tb.Lookup(0, i)
		if ok != (i%2 == 1) {
			t.Fatalf("key %d present=%v", i, ok)
		}
	}
}

func TestScanInvalidPartitionPanics(t *testing.T) {
	tb := NewTable(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.ScanPartition(0, 3, 3, func(uint64, uint64, bool) ScanAction { return ScanKeep })
}

func TestNonPowerOfTwoBucketsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable(Config{Buckets: 100})
}

func TestOpLatencyCharged(t *testing.T) {
	tb := NewTable(Config{})
	_, done := tb.Insert(100, 1, 1)
	if done != 100+70*sim.Nanosecond {
		t.Fatalf("insert done = %v", done)
	}
	_, _, done = tb.Lookup(done, 1)
	if done != 100+140*sim.Nanosecond {
		t.Fatalf("lookup done = %v", done)
	}
}

func TestTablePropertyModelEquivalence(t *testing.T) {
	// The table must behave exactly like a map under a random op sequence.
	type op struct {
		Kind byte
		Key  uint8
		Val  uint64
	}
	f := func(ops []op) bool {
		tb := NewTable(Config{Buckets: 64})
		model := map[uint64]uint64{}
		for _, o := range ops {
			k := uint64(o.Key)
			switch o.Kind % 3 {
			case 0:
				ok, _ := tb.Insert(0, k, o.Val)
				_, exists := model[k]
				if ok == exists {
					return false
				}
				if !exists {
					model[k] = o.Val
				}
			case 1:
				v, ok, _ := tb.Lookup(0, k)
				mv, exists := model[k]
				if ok != exists || (ok && v != mv) {
					return false
				}
			case 2:
				ok, _ := tb.Delete(0, k)
				_, exists := model[k]
				if ok != exists {
					return false
				}
				delete(model, k)
			}
		}
		return tb.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	for bit := 0; bit < 64; bit += 7 {
		a := Mix64(0x1234567890ABCDEF)
		b := Mix64(0x1234567890ABCDEF ^ 1<<bit)
		diff := popcount(a ^ b)
		if diff < 16 || diff > 48 {
			t.Fatalf("bit %d: only %d output bits flipped", bit, diff)
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestClearRefDropsOnlyTheReference(t *testing.T) {
	tb := NewTable(Config{})
	tb.Insert(0, 3, 30)
	if ok, _ := tb.ClearRef(0, 3); !ok {
		t.Fatal("ClearRef of a live record failed")
	}
	if ref, ok := tb.Ref(3); !ok || ref {
		t.Fatalf("Ref = (%v,%v), want the record kept with REF clear", ref, ok)
	}
	if v, ok, _ := tb.Lookup(0, 3); !ok || v != 30 {
		t.Fatalf("lookup = (%d,%v), want the value untouched", v, ok)
	}
	if ok, _ := tb.ClearRef(0, 4); ok {
		t.Fatal("ClearRef of a missing key succeeded")
	}
}

func TestMix64LoadBalanceUniformity(t *testing.T) {
	// Flow-style load balancing over 8 next hops: 8000 keys packing a
	// source and a destination address, both drawn from small subnets.
	bins := make([]int, 8)
	for i := uint64(0); i < 8000; i++ {
		src, dst := 0x0a000000+i, 0x0a010000+(i*7919)&0xffff
		bins[Mix64(src<<32|dst)%8]++
	}
	for i, c := range bins {
		if c < 800 || c > 1200 {
			t.Fatalf("bin %d = %d, badly skewed: %v", i, c, bins)
		}
	}
}

func TestBucketChainsStayShort(t *testing.T) {
	// Sequential keys (block IDs, flow counters) must not pile into a few
	// buckets: at load factor 1 the longest chain stays small.
	tb := NewTable(Config{Buckets: 1024})
	for k := uint64(0); k < 1024; k++ {
		tb.Insert(0, k, k)
	}
	longest := 0
	for _, b := range tb.buckets {
		longest = max(longest, len(b))
	}
	if longest > 8 {
		t.Fatalf("longest chain = %d at load factor 1", longest)
	}
}
