package ingestcodec

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
)

const testPaths = 70 // two words, so bit positions cross a word boundary

func indicesOf(batch []*bitset.Set) [][]int {
	out := make([][]int, len(batch))
	for i, set := range batch {
		out[i] = set.Indices()
	}
	return out
}

func TestDecodeObservations(t *testing.T) {
	handled := map[string][][]int{
		`{"intervals":[]}`:                       {},
		`{"intervals":[{"congested_paths":[]}]}`: {{}},
		`{"intervals":[{"congested_paths":[0,69,64,3,3]},{"congested_paths":[]}]}`: {{0, 3, 64, 69}, {}},
		" \n{ \"intervals\" :\t[ { \"congested_paths\" : [ 1 , 2 ] } ] }\r\n":      {{1, 2}},
	}
	for body, want := range handled {
		batch, ok := DecodeObservations([]byte(body), testPaths)
		if !ok {
			t.Errorf("%q: not handled, want %v", body, want)
			continue
		}
		if got := indicesOf(batch); !reflect.DeepEqual(got, want) {
			t.Errorf("%q: decoded %v, want %v", body, got, want)
		}
		for _, set := range batch {
			if set.Len() != testPaths {
				t.Errorf("%q: set universe %d, want %d", body, set.Len(), testPaths)
			}
		}
	}
	for _, body := range []string{
		``,
		`null`,
		`{}`,
		`{"intervals":null}`,
		`{"Intervals":[]}`,
		`{"intervals":[],"extra":1}`,
		`{"intervals":[{}]}`,
		`{"intervals":[{"congested_paths":null}]}`,
		`{"intervals":[{"congested_paths":[1],"congested_paths":[2]}]}`,
		`{"intervals":[{"congested_paths":[-0]}]}`,
		`{"intervals":[{"congested_paths":[1e1]}]}`,
		`{"intervals":[{"congested_paths":[1.0]}]}`,
		`{"intervals":[{"congested_paths":[01]}]}`,
		`{"intervals":[{"congested_paths":[70]}]}`,
		`{"intervals":[{"congested_paths":[99999999999999999999999]}]}`,
		`{"intervals":[{"congested_paths":[1,]}]}`,
		`{"intervals":[]} x`,
		`{"intervals":[]}{}`,
		`{"intervals":[`,
	} {
		if _, ok := DecodeObservations([]byte(body), testPaths); ok {
			t.Errorf("%q: handled, want the encoding/json fallback", body)
		}
	}
}

func TestDecodeIngest(t *testing.T) {
	base, batch, ok := DecodeIngest([]byte(`{"base_seq":18446744073709551615,"intervals":[[5,0],[],[69]]}`), testPaths)
	if !ok || base != 1<<64-1 {
		t.Fatalf("max base: ok=%v base=%d", ok, base)
	}
	if got, want := indicesOf(batch), [][]int{{0, 5}, {}, {69}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	for _, body := range []string{
		`{"base_seq":18446744073709551616,"intervals":[]}`,
		`{"intervals":[],"base_seq":0}`,
		`{"base_seq":0,"intervals":[[70]]}`,
		`{"base_seq":-1,"intervals":[]}`,
		`{"base_seq":0,"intervals":null}`,
		`{"base_seq":0,"intervals":[null]}`,
		`{"base_seq":00,"intervals":[]}`,
	} {
		if _, _, ok := DecodeIngest([]byte(body), testPaths); ok {
			t.Errorf("%q: handled, want the encoding/json fallback", body)
		}
	}
	if _, _, ok := DecodeIngest([]byte(`{"base_seq":0,"intervals":[[0]]}`), 0); ok {
		t.Error("path 0 handled over an empty universe")
	}
}

// AppendIngest and DecodeIngest are inverse on every batch.
func TestIngestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		batch := make([]*bitset.Set, rng.Intn(5))
		for i := range batch {
			batch[i] = bitset.New(testPaths)
			for p := 0; p < testPaths; p++ {
				if rng.Intn(4) == 0 {
					batch[i].Add(p)
				}
			}
		}
		base := rng.Uint64()
		body := AppendIngest(nil, base, batch)
		gotBase, got, ok := DecodeIngest(body, testPaths)
		if !ok || gotBase != base || !reflect.DeepEqual(indicesOf(got), indicesOf(batch)) {
			t.Fatalf("round trip of %s: ok=%v base=%d sets=%v", body, ok, gotBase, indicesOf(got))
		}
	}
}

func TestPathSet(t *testing.T) {
	set, err := PathSet(0, []int{4, 1}, testPaths)
	if err != nil || !reflect.DeepEqual(set.Indices(), []int{1, 4}) {
		t.Fatalf("PathSet = %v, %v", set, err)
	}
	_, err = PathSet(3, []int{1, -2}, testPaths)
	var pe *PathRangeError
	if !errors.As(err, &pe) || pe.Interval != 3 || pe.Path != -2 {
		t.Fatalf("PathSet error = %v, want a PathRangeError for interval 3 path -2", err)
	}
	if want := "interval 3: path -2 outside universe [0,70)"; err.Error() != want {
		t.Fatalf("message %q, want %q", err, want)
	}
}
