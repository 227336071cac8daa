package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// A -count=3 snapshot keeps all three samples of each benchmark, and the
// comparison reads their medians — not whichever sample came last.
func TestLoadKeepsEverySample(t *testing.T) {
	// One sample arrives as test2json events split mid-line, as
	// `go test -json -bench` writes them; the others are raw bench text.
	snapshot := `{"Action":"output","Output":"BenchmarkDecode/codec-2   \t"}
{"Action":"output","Output":"  1000\t   300 ns/op\t  64 B/op\t   5 allocs/op\n"}
BenchmarkDecode/codec-2   1000   100 ns/op   64 B/op   3 allocs/op
BenchmarkDecode/codec-2   1000   200 ns/op   64 B/op   4 allocs/op
BenchmarkOther-2          5000    50 ns/op
`
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, []byte(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := got["BenchmarkDecode/codec"]
	if dec == nil {
		t.Fatalf("benchmark missing from %v", got)
	}
	if want := []float64{300, 100, 200}; !reflect.DeepEqual(dec.ns, want) {
		t.Fatalf("ns samples %v, want %v", dec.ns, want)
	}
	if want := []float64{5, 3, 4}; !reflect.DeepEqual(dec.allocs, want) {
		t.Fatalf("allocs samples %v, want %v", dec.allocs, want)
	}
	if m := median(dec.ns); m != 200 {
		t.Fatalf("ns median %v, want 200", m)
	}
	if m := median(dec.allocs); m != 4 {
		t.Fatalf("allocs median %v, want 4", m)
	}
	other := got["BenchmarkOther"]
	if other == nil || len(other.ns) != 1 || len(other.allocs) != 0 {
		t.Fatalf("BenchmarkOther = %+v, want one ns sample and no allocs", other)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even-count median %v, want 2.5", m)
	}
}
