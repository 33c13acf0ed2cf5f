package dse

import "testing"

func testSpace() *Space {
	return NewSpace(
		Axis{Name: "a", Values: []float64{1, 2, 3}},
		Axis{Name: "b", Values: []float64{10, 20}},
	)
}

func TestGridRowMajor(t *testing.T) {
	s := testSpace()
	if s.Size() != 6 {
		t.Fatalf("Size = %d", s.Size())
	}
	pts := s.Grid()
	want := [][2]float64{{1, 10}, {1, 20}, {2, 10}, {2, 20}, {3, 10}, {3, 20}}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d has Index %d", i, p.Index)
		}
		if p.Params["a"] != want[i][0] || p.Params["b"] != want[i][1] {
			t.Fatalf("point %d = %v, want %v", i, p.Params, want[i])
		}
	}
}

func TestGridCoversCrossProductOnce(t *testing.T) {
	s := NewSpace(
		Axis{Name: "a", Values: []float64{1, 2}},
		Axis{Name: "b", Values: []float64{1, 2, 3}},
		Axis{Name: "c", Values: []float64{1, 2, 3, 4}},
	)
	if s.Size() != 24 {
		t.Fatalf("Size = %d, want 24", s.Size())
	}
	pts := s.Grid()
	seen := map[[3]float64]bool{}
	for _, p := range pts {
		k := [3]float64{p.Params["a"], p.Params["b"], p.Params["c"]}
		if seen[k] {
			t.Fatalf("point %v enumerated twice", k)
		}
		seen[k] = true
	}
	if len(pts) != 24 || len(seen) != 24 {
		t.Fatalf("%d points, %d distinct; want 24", len(pts), len(seen))
	}
}

func TestGridPointsOwnTheirParams(t *testing.T) {
	s := testSpace()
	pts := s.Grid()
	pts[0].Params["a"] = 99
	if pts[1].Params["a"] != 1 {
		t.Fatal("points share a params map")
	}
	if s.Grid()[0].Params["a"] != 1 {
		t.Fatal("a point's params alias the space")
	}
}

func TestTrialSeedDistinctAndStable(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		s := TrialSeed(1, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("trials %d and %d share seed %#x", prev, i, s)
		}
		seen[s] = i
	}
	if TrialSeed(1, 5) != TrialSeed(1, 5) {
		t.Fatal("TrialSeed not a pure function")
	}
	if TrialSeed(1, 5) == TrialSeed(2, 5) {
		t.Fatal("sweep seed ignored")
	}
}

func TestNewSpacePanicsOnBadAxes(t *testing.T) {
	for name, axes := range map[string][]Axis{
		"empty values": {{Name: "a"}},
		"no name":      {{Values: []float64{1}}},
		"duplicate":    {{Name: "a", Values: []float64{1}}, {Name: "a", Values: []float64{2}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			NewSpace(axes...)
		}()
	}
}
