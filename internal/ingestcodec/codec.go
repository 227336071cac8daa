// Package ingestcodec is the single-pass codec of the two ingest wire
// bodies: the public POST /v1/observations body
//
//	{"intervals":[{"congested_paths":[3,17]},{"congested_paths":[]}]}
//
// and the cluster c1 ingest body (POST /c1/ingest and its per-shard
// catch-up twin)
//
//	{"base_seq":40,"intervals":[[3,17],[]]}
//
// The decoders parse the canonical encoding of a body in one pass
// straight into full-universe path sets, with the range check of every
// path ID, and allocate a handful of times per batch rather than per
// number. Canonical means exactly what json.Marshal of the wire types
// writes, plus JSON whitespace between tokens: the documented
// lowercase keys once each in their order, non-negative integers
// without sign, leading zero, fraction or exponent, and nothing but
// whitespace after the object. Any other input — including a
// canonical body with a path outside the universe — is "not handled"
// (ok == false): the caller then decodes the same bytes with
// encoding/json, which owns every error message and every lenient
// case (case-insensitive or unknown keys, null, -0, trailing data).
// The fast path therefore never accepts a body the reference rejects,
// and never reads one differently (FuzzDecodeObservations in
// internal/server and FuzzDecodeIngest in internal/cluster check both).
//
// AppendIngest writes a c1 body from path sets byte-identically to
// json.Marshal of cluster.IngestRequest, so the c1 wire format is
// unchanged by which side uses the codec.
package ingestcodec

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/bitset"
)

// PathRangeError reports a congested-path ID outside the path
// universe; it is the range check the reference (encoding/json) decode
// paths share.
type PathRangeError struct {
	Interval, Path, NumPaths int
}

func (e *PathRangeError) Error() string {
	return fmt.Sprintf("interval %d: path %d outside universe [0,%d)", e.Interval, e.Path, e.NumPaths)
}

// PathSet converts one decoded interval (the i-th of its batch) into a
// full-universe path set, or a *PathRangeError for the first path
// outside [0, numPaths).
func PathSet(i int, paths []int, numPaths int) (*bitset.Set, error) {
	set := bitset.New(numPaths)
	for _, p := range paths {
		if p < 0 || p >= numPaths {
			return nil, &PathRangeError{Interval: i, Path: p, NumPaths: numPaths}
		}
		set.Add(p)
	}
	return set, nil
}

// DecodeObservations parses a canonical POST /v1/observations body
// into one set over [0, numPaths) per interval. ok is false when the
// body is not canonical or names a path outside the universe.
func DecodeObservations(body []byte, numPaths int) (batch []*bitset.Set, ok bool) {
	d := newDecoder(body, numPaths)
	interval := func() bool {
		return d.lit('{') && d.key(`"congested_paths"`) && d.paths() && d.lit('}')
	}
	if !d.lit('{') || !d.key(`"intervals"`) || !d.list(interval) || !d.lit('}') || !d.end() {
		return nil, false
	}
	return bitset.Slab(numPaths, d.count, d.slab), true
}

// DecodeIngest parses a canonical c1 ingest body into its base
// sequence and one set over [0, numPaths) per interval. ok is false
// when the body is not canonical, the base overflows uint64, or a path
// lies outside the universe.
func DecodeIngest(body []byte, numPaths int) (baseSeq uint64, batch []*bitset.Set, ok bool) {
	d := newDecoder(body, numPaths)
	if !d.lit('{') || !d.key(`"base_seq"`) {
		return 0, nil, false
	}
	baseSeq, ok = d.uint(math.MaxUint64)
	if !ok || !d.lit(',') || !d.key(`"intervals"`) || !d.list(d.paths) || !d.lit('}') || !d.end() {
		return 0, nil, false
	}
	return baseSeq, bitset.Slab(numPaths, d.count, d.slab), true
}

// decoder is one pass over a body. Every interval appends Words(numPaths)
// zero words to slab and sets its paths' bits there; bitset.Slab carves
// the slab into the batch at the end, so a batch costs the slab plus
// two slices, whatever its size.
type decoder struct {
	b        []byte
	i        int
	numPaths int
	words    int
	slab     []uint64
	count    int
}

// maxPresized caps the intervals newDecoder sizes the slab for up
// front, so a hostile body of brackets cannot reserve memory it never
// fills; longer batches grow the slab by appending.
const maxPresized = 256

// newDecoder sizes the slab from the body's '[' count, which is the
// interval count plus one for a canonical body of either kind, so a
// typical batch decodes with a single slab allocation.
func newDecoder(body []byte, numPaths int) decoder {
	words := bitset.Words(numPaths)
	n := min(bytes.Count(body, []byte{'['})-1, maxPresized)
	return decoder{b: body, numPaths: numPaths, words: words, slab: make([]uint64, 0, max(n, 0)*words)}
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// lit consumes c after optional whitespace.
func (d *decoder) lit(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// key consumes the exact quoted key k and its colon.
func (d *decoder) key(k string) bool {
	d.ws()
	if len(d.b)-d.i < len(k) || string(d.b[d.i:d.i+len(k)]) != k {
		return false
	}
	d.i += len(k)
	return d.lit(':')
}

// end accepts only trailing whitespace.
func (d *decoder) end() bool {
	d.ws()
	return d.i == len(d.b)
}

// uint consumes a canonical non-negative integer no greater than max.
// A leading zero ends the number, so "01" leaves "1" for the caller's
// next token to reject; a following '.', 'e' or sign is rejected the
// same way.
func (d *decoder) uint(max uint64) (uint64, bool) {
	d.ws()
	if d.i >= len(d.b) || d.b[d.i]-'0' > 9 {
		return 0, false
	}
	v := uint64(d.b[d.i] - '0')
	d.i++
	if v == 0 {
		return 0, true // a leading zero is the whole number
	}
	for n := 1; d.i < len(d.b); n++ {
		c := d.b[d.i] - '0' // wraps above 9 for every non-digit
		if c > 9 {
			break
		}
		// Nineteen digits always fit a uint64; only a twentieth can
		// overflow, so only it pays for the division.
		if n >= 19 && (n > 19 || v > (math.MaxUint64-uint64(c))/10) {
			return 0, false
		}
		v = v*10 + uint64(c)
		d.i++
	}
	return v, v <= max
}

// list consumes a JSON array whose elements item parses: [] or
// [item,item,...].
func (d *decoder) list(item func() bool) bool {
	if !d.lit('[') {
		return false
	}
	if d.lit(']') {
		return true
	}
	for item() {
		if !d.lit(',') {
			return d.lit(']')
		}
	}
	return false
}

// paths consumes one [p,...] array of path IDs as the next interval.
func (d *decoder) paths() bool {
	base := len(d.slab)
	d.slab = append(d.slab, make([]uint64, d.words)...)
	d.count++
	return d.list(func() bool {
		if d.numPaths == 0 {
			return false // no path ID is in range
		}
		p, ok := d.uint(uint64(d.numPaths - 1))
		if ok {
			d.slab[base+int(p/64)] |= 1 << (p % 64)
		}
		return ok
	})
}

// AppendIngest appends the c1 ingest body of batch, based at baseSeq,
// to dst: {"base_seq":N,"intervals":[[...],...]} with each interval's
// path IDs ascending — byte-for-byte what json.Marshal writes for
// cluster.IngestRequest{BaseSeq: baseSeq, Intervals: <each set's
// Indices()>}.
func AppendIngest(dst []byte, baseSeq uint64, batch []*bitset.Set) []byte {
	size := len(`{"base_seq":,"intervals":[]}`) + 20
	for _, set := range batch {
		size += 3 + set.Count()*(digits(set.Len())+1)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"base_seq":`...)
	dst = strconv.AppendUint(dst, baseSeq, 10)
	dst = append(dst, `,"intervals":[`...)
	for i, set := range batch {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		first := true
		set.ForEach(func(p int) bool {
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = appendPath(dst, p)
			return true
		})
		dst = append(dst, ']')
	}
	return append(dst, "]}"...)
}

// appendPath appends the decimal form of p ≥ 0: strconv.AppendInt
// without the copy through its scratch buffer, which dominates on the
// short numbers a batch writes tens of thousands of.
func appendPath(dst []byte, p int) []byte {
	n := digits(p)
	dst = slices.Grow(dst, n)
	l := len(dst)
	dst = dst[:l+n]
	for i := l + n - 1; i > l; i-- {
		dst[i] = byte('0' + p%10)
		p /= 10
	}
	dst[l] = byte('0' + p)
	return dst
}

// digits is the decimal length of n ≥ 0.
func digits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// maxPooledBody caps the buffers ReleaseBody keeps: a rare huge batch
// should not pin its memory in the pool for the life of the process.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadBody reads r to EOF into a pooled buffer. The caller hands the
// buffer back with ReleaseBody once nothing references its bytes (the
// decoders copy everything they keep into path sets).
func ReadBody(r io.Reader) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(r)
	return buf, err
}

// ReleaseBody returns a ReadBody buffer to the pool.
func ReleaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}
