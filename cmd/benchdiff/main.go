// Command benchdiff compares two benchmark snapshots produced by
// `make bench` / `make bench-baseline` (`go test -json -bench` output)
// and prints a per-benchmark delta table for ns/op and allocs/op.
//
// Usage:
//
//	benchdiff [-fail-over PCT] [-allocs-over PCT] [-allocs-for REGEX] BENCH_baseline.json BENCH_fresh.json
//
// By default the comparison is purely informational and always exits 0
// (CI runs it as a reported, non-fatal step: one-shot CI timings are
// too noisy to gate on). With -fail-over N it exits 1 when any
// benchmark's ns/op regressed by more than N percent; with
// -allocs-over N it additionally exits 1 when a benchmark matching
// -allocs-for regressed its allocs/op by more than N percent (allocs
// are deterministic, so this gate is meaningful even on noisy boxes —
// it protects the epoch-solve hot paths' allocation discipline).
//
// A snapshot may hold several samples per benchmark (`go test -count=N`);
// every sample is kept and the comparison runs on the medians of ns/op
// and of allocs/op.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchRE matches one benchmark result line of `go test -bench`
// output, e.g.
//
//	BenchmarkGoodCount/columnar-8   9031466   138.1 ns/op   0 B/op   0 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped so snapshots from
// machines with different core counts still align.
var benchRE = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+(?:e[+-]?\d+)?) ns/op`)

// allocsRE extracts the -benchmem allocation count from the same line.
var allocsRE = regexp.MustCompile(` ([0-9.]+(?:e[+-]?\d+)?) allocs/op`)

// samples are every measurement of one benchmark in a snapshot, in
// file order; allocs holds only the samples that carried -benchmem
// output.
type samples struct {
	ns     []float64
	allocs []float64
}

// testEvent is the subset of test2json's event schema we need.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// load parses a snapshot into benchmark name -> every sample of it.
//
// test2json splits one bench-output line across multiple events (the
// name is emitted when the benchmark starts, the measurements when it
// finishes), so the raw stream is reassembled from the Output payloads
// first and the result regex runs over its real lines.
func load(path string) (map[string]*samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var raw strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// Snapshots are test2json streams, but tolerate raw bench text
		// too so hand-saved output also diffs.
		if line[0] == '{' {
			var ev testEvent
			if err := json.Unmarshal(line, &ev); err == nil && ev.Action == "output" {
				raw.WriteString(ev.Output)
			}
			continue
		}
		raw.Write(line)
		raw.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]*samples{}
	for _, text := range strings.Split(raw.String(), "\n") {
		text = strings.TrimSpace(text)
		m := benchRE.FindStringSubmatch(text)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		s := out[m[1]]
		if s == nil {
			s = &samples{}
			out[m[1]] = s
		}
		s.ns = append(s.ns, ns)
		if am := allocsRE.FindStringSubmatch(text); am != nil {
			if allocs, err := strconv.ParseFloat(am[1], 64); err == nil {
				s.allocs = append(s.allocs, allocs)
			}
		}
	}
	return out, nil
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func human(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func main() {
	failOver := flag.Float64("fail-over", 0, "exit non-zero when any benchmark's ns/op regresses by more than this percent (0 = never fail)")
	allocsOver := flag.Float64("allocs-over", 0, "exit non-zero when a benchmark matching -allocs-for regresses allocs/op by more than this percent (0 = never fail)")
	allocsFor := flag.String("allocs-for", "EpochSolve|PlanRepair|FrontierMoveRepair|StreamIngest|MetricsObserve|ColdPlanBuild|IngestDecode|C1Ingest", "regexp of benchmarks whose allocs/op are gated by -allocs-over")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-fail-over PCT] [-allocs-over PCT] [-allocs-for REGEX] <baseline> <fresh>\n")
		os.Exit(2)
	}
	allocsGate, err := regexp.Compile(*allocsFor)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: bad -allocs-for: %v\n", err)
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
	fresh, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}

	names := map[string]bool{}
	for n := range base {
		names[n] = true
	}
	for n := range fresh {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	width := 0
	for _, n := range sorted {
		if len(n) > width {
			width = len(n)
		}
	}
	worst := 0.0
	var allocFailures []string
	fmt.Printf("%-*s  %12s  %12s  %8s  %s\n", width, "benchmark", "baseline", "fresh", "delta", "allocs")
	for _, n := range sorted {
		b, inBase := base[n]
		f, inFresh := fresh[n]
		switch {
		case !inBase:
			fmt.Printf("%-*s  %12s  %12s  %8s\n", width, n, "-", human(median(f.ns)), "(new)")
		case !inFresh:
			fmt.Printf("%-*s  %12s  %12s  %8s\n", width, n, human(median(b.ns)), "-", "(gone)")
		default:
			bns, fns := median(b.ns), median(f.ns)
			delta := (fns - bns) / bns * 100
			if delta > worst {
				worst = delta
			}
			allocCol := ""
			if len(b.allocs) > 0 && len(f.allocs) > 0 {
				ba, fa := median(b.allocs), median(f.allocs)
				allocCol = fmt.Sprintf("%.0f → %.0f", ba, fa)
				regressed := (ba == 0 && fa > 0) || (ba > 0 && (fa-ba)/ba*100 > *allocsOver)
				if *allocsOver > 0 && regressed && allocsGate.MatchString(n) {
					allocFailures = append(allocFailures,
						fmt.Sprintf("%s: %.0f → %.0f allocs/op", n, ba, fa))
					allocCol += "  !"
				}
			}
			if len(b.ns) > 1 || len(f.ns) > 1 {
				allocCol += fmt.Sprintf("  (medians of %d/%d)", len(b.ns), len(f.ns))
			}
			fmt.Printf("%-*s  %12s  %12s  %+7.1f%%  %s\n", width, n, human(bns), human(fns), delta, allocCol)
		}
	}
	fail := false
	if *failOver > 0 && worst > *failOver {
		fmt.Fprintf(os.Stderr, "benchdiff: worst regression %.1f%% exceeds threshold %.1f%%\n", worst, *failOver)
		fail = true
	}
	for _, msg := range allocFailures {
		fmt.Fprintf(os.Stderr, "benchdiff: allocs/op regression: %s\n", msg)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}
