// Package bitset provides a compact, allocation-conscious set of
// non-negative integers backed by a []uint64.
//
// The tomography code manipulates very many small sets of link and path
// indices (coverage functions, path sets, correlation subsets); bitsets
// make intersection, union, subset and popcount operations cheap and
// make set values usable as map keys via Key().
package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a bitset over the universe [0, n). The zero value is an empty
// set over an empty universe; use New to pre-size.
type Set struct {
	words []uint64
	n     int // universe size (highest addressable bit + 1 at construction)
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a set over [0, n) containing the given indices.
func FromIndices(n int, indices ...int) *Set {
	s := New(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Words returns the number of 64-bit words backing a set over [0, n).
func Words(n int) int { return (n + wordBits - 1) / wordBits }

// Slab returns count sets over [0, n) whose bits live in consecutive
// Words(n)-word windows of words (bit p of set i is bit p%64 of
// words[i*Words(n)+p/64]); len(words) must be count*Words(n). One
// allocation backs a whole batch, yet the sets never share bits: each
// window's capacity is capped, so an Add past the universe moves that
// set alone to fresh storage.
func Slab(n, count int, words []uint64) []*Set {
	w := Words(n)
	if len(words) != count*w {
		panic(fmt.Sprintf("bitset: slab of %d words for %d sets of %d words", len(words), count, w))
	}
	sets := make([]Set, count)
	out := make([]*Set, count)
	for i := range sets {
		sets[i] = Set{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
		out[i] = &sets[i]
	}
	return out
}

// Len returns the universe size the set was created with.
func (s *Set) Len() int { return s.n }

// grow ensures bit i is addressable.
func (s *Set) grow(i int) {
	w := i/wordBits + 1
	if w > len(s.words) {
		nw := make([]uint64, w)
		copy(nw, s.words)
		s.words = nw
	}
	if i+1 > s.n {
		s.n = i + 1
	}
}

// Add inserts i into the set, growing the universe if needed. An Add
// within the universe the set was created with never reallocates — the
// fast path below avoids even the grow call, since Add sits on the
// solver's subset-construction hot loop.
func (s *Set) Add(i int) {
	if i < 0 {
		panic("bitset: negative index")
	}
	if w := i / wordBits; w < len(s.words) {
		s.words[w] |= 1 << uint(i%wordBits)
		if i+1 > s.n {
			s.n = i + 1
		}
		return
	}
	s.grow(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set. Removing an absent element is a no-op.
func (s *Set) Remove(i int) {
	if i < 0 || i/wordBits >= len(s.words) {
		return
	}
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i/wordBits >= len(s.words) {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no elements.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Clear removes all elements, keeping the universe size.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Union returns a new set containing elements of s or t.
func (s *Set) Union(t *Set) *Set {
	long, short := s, t
	if len(t.words) > len(s.words) {
		long, short = t, s
	}
	r := long.Clone()
	for i, w := range short.words {
		r.words[i] |= w
	}
	return r
}

// UnionWith adds all elements of t to s in place.
func (s *Set) UnionWith(t *Set) {
	if t.n > s.n {
		s.grow(t.n - 1)
	}
	for i, w := range t.words {
		if w != 0 {
			s.words[i] |= w
		}
	}
}

// Intersect returns a new set containing elements in both s and t.
func (s *Set) Intersect(t *Set) *Set {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	r := &Set{words: make([]uint64, n), n: min(s.n, t.n)}
	for i := 0; i < n; i++ {
		r.words[i] = s.words[i] & t.words[i]
	}
	return r
}

// Intersects reports whether s and t share at least one element.
func (s *Set) Intersects(t *Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Difference returns a new set with the elements of s not in t.
func (s *Set) Difference(t *Set) *Set {
	r := s.Clone()
	n := len(r.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		r.words[i] &^= t.words[i]
	}
	return r
}

// IntersectWith removes from s every element not in t, in place.
func (s *Set) IntersectWith(t *Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &= t.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// SymmetricDifference returns a new set with the elements in exactly
// one of s and t.
func (s *Set) SymmetricDifference(t *Set) *Set {
	long, short := s, t
	if len(short.words) > len(long.words) {
		long, short = short, long
	}
	r := long.Clone()
	for i, w := range short.words {
		r.words[i] ^= w
	}
	return r
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same elements
// (universe sizes are ignored).
func (s *Set) Equal(t *Set) bool {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Indices returns the elements of s in increasing order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// AppendIndices appends the elements of s in increasing order to dst
// and returns the extended slice — the allocation-free companion of
// Indices for callers with a reusable buffer.
func (s *Set) AppendIndices(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*wordBits+b)
			w &= w - 1
		}
	}
	return dst
}

// ForEach calls fn for each element in increasing order. If fn returns
// false, iteration stops.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Key returns a string usable as a map key that uniquely identifies the
// set's contents (trailing zero words are not significant). The
// encoding is opaque — raw little-endian words, 8 bytes each — chosen
// over a printable form because Key sits on the solvers' subset
// registration and lookup hot path.
func (s *Set) Key() string {
	end := len(s.words)
	for end > 0 && s.words[end-1] == 0 {
		end--
	}
	buf := make([]byte, end*8)
	for i := 0; i < end; i++ {
		binary.LittleEndian.PutUint64(buf[i*8:], s.words[i])
	}
	return string(buf)
}

// AppendKey appends the Key encoding to dst and returns the extended
// slice. Combined with a map lookup through a string conversion
// (m[string(buf)]), it makes key-based lookups allocation-free on the
// solver's candidate-evaluation hot path.
func (s *Set) AppendKey(dst []byte) []byte {
	end := len(s.words)
	for end > 0 && s.words[end-1] == 0 {
		end--
	}
	for i := 0; i < end; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, s.words[i])
	}
	return dst
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
