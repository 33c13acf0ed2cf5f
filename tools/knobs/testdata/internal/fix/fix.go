// Package fix is the knobs scanner's fixture: one field per write rule, each
// named for the class the scanner must give it (see ../../classes.golden).
package fix

// Latency counts through a pointer receiver.
type Latency struct{ N int }

func (l *Latency) add() { l.N++ }

// Worker: a pointer-receiver call on a field takes its address.
type Worker struct {
	Latency Latency  // w.Latency.add(): written
	Ptr     *Latency // w.Ptr.add() goes through the pointer: never written
}

// Inner and Nested: writing n.Outer.G writes Outer too.
type Inner struct{ G int }

// Nested holds an Inner by value.
type Nested struct{ Outer Inner }

// Pair is built by a positional literal.
type Pair struct{ A, B int }

// Addr: &a.F and a.Arr[:] take addresses.
type Addr struct {
	F   int
	Arr [2]byte
}

// Config: default-filling writes do not count.
type Config struct {
	Filled  int // only withDefaults writes it: never written
	Guarded int // only `if c.Guarded == 0 { c.Guarded = 1 }`: never written
	Set     int // assigned in non-test code: written
	Other   int // assigned under another field's zero test: written
	Tested  int // only fix_test.go writes it: test-only
}

type hidden struct{ X int } // unexported: not listed

func (c Config) withDefaults() Config {
	c.Filled = 3
	return c
}

func use(w *Worker, n *Nested, a *Addr, c *Config, src []byte) (Pair, hidden) {
	w.Latency.add()
	w.Ptr.add()
	n.Outer.G = 1
	p := &a.F
	*p = 2
	copy(a.Arr[:], src)
	if c.Guarded == 0 {
		c.Guarded = 1
	}
	if c.Guarded <= 0 {
		c.Other = 1
	}
	c.Set = 4
	return Pair{1, 2}, hidden{X: 1}
}
