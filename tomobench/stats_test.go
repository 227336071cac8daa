package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestSummarizeMedianAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	s, err := Summarize(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1000 || s.P50 != 500 || s.Tail != 990 || s.Beyond != 10 {
		t.Fatalf("got %+v, want N=1000 P50=500 Tail=990 Beyond=10", s)
	}
}

func TestSummarizeRejectsThinTail(t *testing.T) {
	xs := make([]float64, 999) // p99 leaves only 9 beyond
	for i := range xs {
		xs[i] = float64(i)
	}
	s, err := Summarize(xs, 0.99)
	if err == nil {
		t.Fatalf("accepted a p99 with %d samples beyond it", s.Beyond)
	}
	if s.Beyond != 9 {
		t.Fatalf("beyond = %d, want 9", s.Beyond)
	}
	if _, err := Summarize(xs, 0.95); err != nil {
		t.Fatalf("p95 over 999 samples: %v", err)
	}
}

func TestSummarizeRejectsBadInput(t *testing.T) {
	if _, err := Summarize(nil, 0.99); err == nil {
		t.Fatal("accepted an empty sample")
	}
	if _, err := Summarize([]float64{1, 2, 3}, 0.4); err == nil {
		t.Fatal("accepted a tail below the median")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
}

func TestQuietest(t *testing.T) {
	total := []uint64{200, 200, 200, 200, 200}
	for _, tc := range []struct {
		steal []uint64
		want  []bool
	}{
		// At most 2% stolen: quiet; more: noisy.
		{[]uint64{4, 5, 0, 20, 1}, []bool{true, false, true, false, true}},
		// Fewer than half quiet: the half with the least steal.
		{[]uint64{10, 0, 6, 6, 9}, []bool{false, true, true, true, false}},
	} {
		got := quietest(tc.steal, total)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("quietest(%v) = %v, want %v", tc.steal, got, tc.want)
			}
		}
	}
}

func TestQuietOnlyFiltersBySlot(t *testing.T) {
	t0 := time.Now()
	p := &phase{
		slots: []time.Time{t0, t0.Add(time.Second), t0.Add(2 * time.Second)},
		quiet: []bool{false, true},
	}
	xs := []float64{1, 2, 3}
	due := []time.Time{t0.Add(500 * time.Millisecond), t0.Add(1500 * time.Millisecond), t0.Add(2500 * time.Millisecond)}
	// The last sample is due after the final slot and counts in it.
	if got := p.quietOnly(xs, due); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("quietOnly = %v, want [2 3]", got)
	}
	p.ackedDue = due
	if got := p.quietRate(10); got != 20 {
		t.Fatalf("quietRate = %v, want 20 intervals/s", got)
	}
}
