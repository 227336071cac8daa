package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddContainsRemove(t *testing.T) {
	s := New(10)
	if s.Contains(3) {
		t.Fatal("empty set should not contain 3")
	}
	s.Add(3)
	s.Add(9)
	if !s.Contains(3) || !s.Contains(9) {
		t.Fatal("missing added elements")
	}
	if s.Contains(4) {
		t.Fatal("should not contain 4")
	}
	s.Remove(3)
	if s.Contains(3) {
		t.Fatal("3 should have been removed")
	}
	if got := s.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestGrowOnAdd(t *testing.T) {
	s := New(1)
	s.Add(130) // beyond two words
	if !s.Contains(130) {
		t.Fatal("grow on Add failed")
	}
	if s.Contains(129) || s.Contains(131) {
		t.Fatal("grow set unexpected bits")
	}
}

func TestRemoveOutOfRangeIsNoop(t *testing.T) {
	s := New(4)
	s.Remove(1000) // must not panic
	s.Remove(-1)
	if !s.IsEmpty() {
		t.Fatal("set should remain empty")
	}
}

func TestUnionIntersectDifference(t *testing.T) {
	a := FromIndices(10, 1, 2, 3)
	b := FromIndices(10, 3, 4)
	if got := a.Union(b).Indices(); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("union = %v", got)
	}
	if got := a.Intersect(b).Indices(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("intersect = %v", got)
	}
	if got := a.Difference(b).Indices(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("difference = %v", got)
	}
	if !a.Intersects(b) {
		t.Fatal("a and b should intersect")
	}
	c := FromIndices(10, 7)
	if a.Intersects(c) {
		t.Fatal("a and c should not intersect")
	}
}

func TestUnionWithDifferentSizes(t *testing.T) {
	a := FromIndices(4, 0)
	b := FromIndices(200, 199)
	a.UnionWith(b)
	if !a.Contains(0) || !a.Contains(199) {
		t.Fatal("UnionWith across sizes failed")
	}
}

func TestSubsetEqual(t *testing.T) {
	a := FromIndices(10, 1, 2)
	b := FromIndices(10, 1, 2, 3)
	if !a.SubsetOf(b) {
		t.Fatal("a ⊆ b")
	}
	if b.SubsetOf(a) {
		t.Fatal("b ⊄ a")
	}
	if !a.SubsetOf(a) {
		t.Fatal("a ⊆ a")
	}
	c := FromIndices(300, 1, 2) // different universe size, same contents
	if !a.Equal(c) || !c.Equal(a) {
		t.Fatal("Equal must ignore universe size")
	}
}

func TestIndicesAndForEach(t *testing.T) {
	s := FromIndices(130, 0, 63, 64, 129)
	want := []int{0, 63, 64, 129}
	if got := s.Indices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2 // early stop
	})
	if !reflect.DeepEqual(seen, []int{0, 63}) {
		t.Fatalf("ForEach early-stop = %v", seen)
	}
}

func TestKeyUniqueness(t *testing.T) {
	a := FromIndices(10, 1, 2)
	b := FromIndices(500, 1, 2)
	if a.Key() != b.Key() {
		t.Fatal("Key must not depend on trailing zero words")
	}
	c := FromIndices(10, 1, 3)
	if a.Key() == c.Key() {
		t.Fatal("different sets must have different keys")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(10, 1)
	b := a.Clone()
	b.Add(5)
	if a.Contains(5) {
		t.Fatal("Clone must be independent")
	}
}

func TestClear(t *testing.T) {
	a := FromIndices(10, 1, 2, 3)
	a.Clear()
	if !a.IsEmpty() || a.Count() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestString(t *testing.T) {
	if got := FromIndices(5, 0, 2).String(); got != "{0, 2}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(5).String(); got != "{}" {
		t.Fatalf("String(empty) = %q", got)
	}
}

// randomSet builds a set from a seed for property tests.
func randomSet(rng *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			s.Add(i)
		}
	}
	return s
}

func TestQuickDeMorgan(t *testing.T) {
	// |A ∪ B| + |A ∩ B| == |A| + |B|
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, b := randomSet(rng, n), randomSet(rng, n)
		return a.Union(b).Count()+a.Intersect(b).Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDifferencePartition(t *testing.T) {
	// A = (A \ B) ∪ (A ∩ B), disjointly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, b := randomSet(rng, n), randomSet(rng, n)
		diff, inter := a.Difference(b), a.Intersect(b)
		if diff.Intersects(inter) {
			return false
		}
		return diff.Union(inter).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubsetViaIntersect(t *testing.T) {
	// A ⊆ B  ⇔  A ∩ B = A.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, b := randomSet(rng, n), randomSet(rng, n)
		return a.SubsetOf(b) == a.Intersect(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIndicesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a := randomSet(rng, n)
		b := FromIndices(n, a.Indices()...)
		return a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSymmetricDifference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng, 1+rng.Intn(200)), randomSet(rng, 1+rng.Intn(200))
		got := a.SymmetricDifference(b)
		want := a.Difference(b).Union(b.Difference(a))
		return got.Equal(want) && b.SymmetricDifference(a).Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectWith(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng, 1+rng.Intn(200)), randomSet(rng, 1+rng.Intn(200))
		want := a.Intersect(b)
		a.IntersectWith(b)
		return a.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlab(t *testing.T) {
	const n, count = 130, 3
	words := make([]uint64, count*Words(n))
	words[0] = 1 << 5          // set 0: {5}
	words[Words(n)+2] = 1 << 1 // set 1: {129}
	sets := Slab(n, count, words)
	if len(sets) != count {
		t.Fatalf("Slab returned %d sets, want %d", len(sets), count)
	}
	for i, want := range [][]int{{5}, {129}, {}} {
		if got := sets[i].Indices(); !reflect.DeepEqual(got, want) {
			t.Fatalf("set %d = %v, want %v", i, got, want)
		}
		if sets[i].Len() != n {
			t.Fatalf("set %d universe %d, want %d", i, sets[i].Len(), n)
		}
	}
	// Growing one set past the universe must not spill into its
	// neighbour's window.
	sets[0].Add(200)
	if !sets[1].Equal(FromIndices(n, 129)) || !sets[2].IsEmpty() {
		t.Fatalf("growing set 0 leaked into the slab: %v %v", sets[1], sets[2])
	}
	if got := Slab(0, 2, nil); len(got) != 2 || !got[0].IsEmpty() {
		t.Fatalf("empty-universe slab = %v", got)
	}
}
