package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/ingestcodec"
)

// intervalsOf flattens a batch of congested-path sets into wire
// intervals: the []int form json.Marshal encodes, against which the
// codec's encoder is checked.
func intervalsOf(batch []*bitset.Set) [][]int {
	out := make([][]int, len(batch))
	for i, set := range batch {
		out[i] = set.Indices()
	}
	return out
}

// The c1 encoder writes exactly json.Marshal(IngestRequest{...}), so a
// coordinator using it needs no wire-version bump and old and new
// peers interoperate.
func TestAppendIngestMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		numPaths := 1 + rng.Intn(300)
		batch := make([]*bitset.Set, rng.Intn(8)) // includes the empty batch
		for i := range batch {
			batch[i] = bitset.New(numPaths)
			density := rng.Intn(4) // 0: an empty set
			for p := 0; p < numPaths; p++ {
				if density > 0 && rng.Intn(8) < density {
					batch[i].Add(p)
				}
			}
		}
		base := []uint64{0, 1, rng.Uint64(), math.MaxUint64}[rng.Intn(4)]
		want, err := json.Marshal(IngestRequest{BaseSeq: base, Intervals: intervalsOf(batch)})
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		got := ingestcodec.AppendIngest(prefix, base, batch)
		if !bytes.Equal(got[len(prefix):], want) || !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("trial %d:\n got: %s\nwant: %s", trial, got, want)
		}
	}
}

// ingestSeeds are canonical c1 ingest bodies, whitespace variants and
// every non-canonical shape the codec must hand to encoding/json.
var ingestSeeds = []string{
	`{"base_seq":0,"intervals":[[0,3,64,69],[]]}`,
	`{"base_seq":18446744073709551615,"intervals":[]}`,
	`{"base_seq":7,"intervals":[[]]}`,
	" { \"base_seq\" : 3 ,\n\"intervals\" : [ [ 1 ,\t2 ] , [ ] ] } \r\n",
	`{"BASE_SEQ":1,"intervals":[[1]]}`,
	`{"base_seq":1,"Intervals":[[1]]}`,
	`{"intervals":[[1]],"base_seq":1}`,
	`{"base_seq":1,"base_seq":2,"intervals":[]}`,
	`{"base_seq":1,"intervals":[],"extra":null}`,
	`{"base_seq":-0,"intervals":[]}`,
	`{"base_seq":1e2,"intervals":[]}`,
	`{"base_seq":1.0,"intervals":[]}`,
	`{"base_seq":01,"intervals":[]}`,
	`{"base_seq":18446744073709551616,"intervals":[]}`,
	`{"base_seq":0,"intervals":[[-0]]}`,
	`{"base_seq":0,"intervals":[[1e2]]}`,
	`{"base_seq":0,"intervals":[[01]]}`,
	`{"base_seq":0,"intervals":[[70]]}`,
	`{"base_seq":0,"intervals":[[9223372036854775808]]}`,
	`null`,
	`{"base_seq":null,"intervals":null}`,
	`{"base_seq":0,"intervals":[null]}`,
	`{}`,
	``,
	`{"base_seq":0,"intervals":[]}trailing`,
	`{"base_seq":0,"intervals":[[1,]]}`,
	`{"base_seq":0,"intervals":[[1]`,
}

// FuzzDecodeIngest is the c1 codec's differential property against the
// encoding/json reference: whenever the single-pass decoder accepts a
// body, it yields the reference's base sequence and batch exactly
// (same length, same sets, every path in range); whenever the
// reference rejects a body, the decoder does not accept it.
func FuzzDecodeIngest(f *testing.F) {
	for _, seed := range ingestSeeds {
		f.Add([]byte(seed))
	}
	const numPaths = 70
	f.Fuzz(func(t *testing.T, body []byte) {
		base, fast, ok := ingestcodec.DecodeIngest(body, numPaths)
		refBase, ref, err := decodeIngestJSON(body, numPaths)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("codec accepted %q, which the reference rejects: %v", body, err)
		}
		if base != refBase || len(fast) != len(ref) {
			t.Fatalf("%q: codec base %d / %d intervals, reference %d / %d", body, base, len(fast), refBase, len(ref))
		}
		for i := range fast {
			if !fast[i].Equal(ref[i]) {
				t.Fatalf("%q: interval %d: codec %v, reference %v", body, i, fast[i], ref[i])
			}
			if fast[i].Len() != numPaths {
				t.Fatalf("%q: interval %d over universe %d, want %d", body, i, fast[i].Len(), numPaths)
			}
			fast[i].ForEach(func(p int) bool {
				if p >= numPaths {
					t.Fatalf("%q: interval %d holds out-of-range path %d", body, i, p)
				}
				return true
			})
		}
	})
}
