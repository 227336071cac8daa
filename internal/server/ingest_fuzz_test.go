package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/ingestcodec"
)

// fuzzPaths is the path universe of the decode fuzz targets: two
// bitset words, so IDs on both sides of a word boundary are in range.
const fuzzPaths = 70

// observationSeeds are canonical POST /v1/observations bodies, their
// whitespace variants, and every non-canonical shape the codec must
// hand to encoding/json.
var observationSeeds = []string{
	`{"intervals":[{"congested_paths":[0,3,64,69]},{"congested_paths":[]}]}`,
	`{"intervals":[]}`,
	`{"intervals":[{"congested_paths":[]}]}`,
	" { \"intervals\" : [ { \"congested_paths\" : [ 1 ,\t2 ] } ] } \n",
	"\r\n{\"intervals\":[{\"congested_paths\":[5]}\n,{\"congested_paths\":[6]}]}",
	`{"Intervals":[{"congested_paths":[1]}]}`,
	`{"intervals":[{"Congested_Paths":[1]}]}`,
	`{"intervals":[{"congested_paths":[1],"extra":true}]}`,
	`{"extra":0,"intervals":[]}`,
	`{"intervals":[],"intervals":[{"congested_paths":[2]}]}`,
	`{"intervals":[{"congested_paths":[1],"congested_paths":[2]}]}`,
	`{"intervals":[{"congested_paths":[-0]}]}`,
	`{"intervals":[{"congested_paths":[1e2]}]}`,
	`{"intervals":[{"congested_paths":[1.0]}]}`,
	`{"intervals":[{"congested_paths":[01]}]}`,
	`{"intervals":[{"congested_paths":[-1]}]}`,
	`{"intervals":[{"congested_paths":[70]}]}`,
	`{"intervals":[{"congested_paths":[9223372036854775808]}]}`,
	`{"intervals":[{"congested_paths":[99999999999999999999]}]}`,
	`null`,
	`{"intervals":null}`,
	`{"intervals":[null]}`,
	`{"intervals":[{"congested_paths":null}]}`,
	`{"intervals":[{}]}`,
	`{}`,
	``,
	`{"intervals":[]}trailing`,
	`{"intervals":[]}{"intervals":[]}`,
	`{"intervals":[{"congested_paths":[1,]}]}`,
	`{"intervals":[{"congested_paths":[1]}`,
}

// FuzzDecodeObservations is the codec's differential property against
// the encoding/json reference: whenever the single-pass decoder
// accepts a body, it yields the reference's batch exactly (same
// length, same sets, every path in range); whenever the reference
// rejects a body, the decoder does not accept it.
func FuzzDecodeObservations(f *testing.F) {
	for _, seed := range observationSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fast, ok := ingestcodec.DecodeObservations(body, fuzzPaths)
		ref, err := decodeObservationsJSON(body, fuzzPaths)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("codec accepted %q, which the reference rejects: %v", body, err)
		}
		if len(fast) != len(ref) {
			t.Fatalf("%q: codec decoded %d intervals, reference %d", body, len(fast), len(ref))
		}
		for i := range fast {
			if !fast[i].Equal(ref[i]) {
				t.Fatalf("%q: interval %d: codec %v, reference %v", body, i, fast[i], ref[i])
			}
			if fast[i].Len() != fuzzPaths {
				t.Fatalf("%q: interval %d over universe %d, want %d", body, i, fast[i].Len(), fuzzPaths)
			}
			fast[i].ForEach(func(p int) bool {
				if p >= fuzzPaths {
					t.Fatalf("%q: interval %d holds out-of-range path %d", body, i, p)
				}
				return true
			})
		}
	})
}

// Bodies the codec hands to encoding/json still ingest (or fail)
// exactly as the reference decides: the lenient shapes are accepted,
// and the errors keep their messages.
func TestIngestFallbackBodies(t *testing.T) {
	top := testTopology(t)
	s := newServer(t, top, Config{WindowSize: 100, SolverOpts: solverOpts()})
	defer s.Close()
	h := s.Handler()
	post := func(body string) (int, string) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/observations", strings.NewReader(body)))
		return rw.Code, strings.TrimSpace(rw.Body.String())
	}
	for _, body := range []string{
		`{"intervals":[{"congested_paths":[1]}]}`,
		`{"INTERVALS":[{"Congested_Paths":[1]}],"extra":1}`,
		`{"intervals":[{"congested_paths":[-0]}]}`,
		`{"intervals":[{"congested_paths":[2]}]} trailing`,
		`{"intervals":null}`,
	} {
		if code, resp := post(body); code != http.StatusOK {
			t.Errorf("%s: %d %s, want 200", body, code, resp)
		}
	}
	for body, msg := range map[string]string{
		`{"intervals":[{"congested_paths":[1e2]}]}`:                           "decoding body: json: cannot unmarshal number 1e2 ",
		`{"intervals":[{"congested_paths":[1]},{"congested_paths":[99999]}]}`: "interval 1: path 99999 outside universe [0," + strconv.Itoa(top.NumPaths()) + ")",
	} {
		code, resp := post(body)
		var env Envelope
		if err := json.Unmarshal([]byte(resp), &env); err != nil || code != http.StatusBadRequest ||
			env.Error == nil || env.Error.Code != CodeBadRequest || !strings.HasPrefix(env.Error.Message, msg) {
			t.Errorf("%s: %d %s, want 400 %q…", body, code, resp, msg)
		}
	}
}

// Concurrent POSTs share the pooled body buffers: each poster's
// intervals congest only its own path, so a buffer handed to two
// requests at once, or released while still being decoded, would show
// up as a wrong congested fraction. Odd posts take the encoding/json
// fallback, even ones the codec.
func TestConcurrentIngestBodies(t *testing.T) {
	const posters, posts, perPost = 4, 25, 4
	top := testTopology(t)
	s := newServer(t, top, Config{WindowSize: 1000, SolverOpts: solverOpts()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	errs := make(chan error, posters)
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			iv := `{"congested_paths":[` + strconv.Itoa(g) + `]}`
			for k := 0; k < posts; k++ {
				key := `"intervals"`
				if k%2 == 1 {
					key = `"Intervals"`
				}
				body := `{` + key + `:[` + strings.TrimSuffix(strings.Repeat(iv+",", perPost), ",") + `]}`
				resp, err := ts.Client().Post(ts.URL+"/v1/observations", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("poster %d post %d: HTTP %d", g, k, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if snap := s.Recompute(nil); snap.Err != nil || snap.SeqHigh != posters*posts*perPost {
		t.Fatalf("snapshot seq %d (err %v), want %d", snap.SeqHigh, snap.Err, posters*posts*perPost)
	}
	var resp CongestedPathsResponse
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/paths/congested?min=0.01", &resp); code != http.StatusOK {
		t.Fatalf("congested paths: HTTP %d", code)
	}
	if len(resp.Paths) != posters {
		t.Fatalf("congested paths %+v, want exactly paths 0..%d", resp.Paths, posters-1)
	}
	for _, p := range resp.Paths {
		if p.Path >= posters || p.CongestedFraction != 1.0/posters {
			t.Fatalf("path %d congested fraction %v, want paths 0..%d at %v", p.Path, p.CongestedFraction, posters-1, 1.0/posters)
		}
	}
}
