package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/server"
)

// metricsSnap is one scrape of GET /metrics, keyed by series
// (`name` or `name{labels}`).
type metricsSnap map[string]float64

func (g *generator) scrape() (metricsSnap, error) {
	req, err := http.NewRequest(http.MethodGet, g.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	body, err := g.do(req)
	if err != nil {
		return nil, err
	}
	out := metricsSnap{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of family name whose labels contain all of
// match (e.g. `rpc="ingest"`); suffix selects _sum/_count of histograms.
func (m metricsSnap) sum(name, suffix string, match ...string) float64 {
	total := 0.0
	for k, v := range m {
		base, labels, _ := strings.Cut(k, "{")
		if base != name+suffix {
			continue
		}
		ok := true
		for _, l := range match {
			ok = ok && strings.Contains(labels, l)
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is a metrics difference between two scrapes.
type delta struct{ before, after metricsSnap }

func (d delta) count(name string, match ...string) float64 {
	return d.after.sum(name, "", match...) - d.before.sum(name, "", match...)
}

// histMean is the mean observation of a histogram over the interval and
// the number of observations.
func (d delta) histMean(name string, match ...string) (mean, n float64) {
	n = d.after.sum(name, "_count", match...) - d.before.sum(name, "_count", match...)
	s := d.after.sum(name, "_sum", match...) - d.before.sum(name, "_sum", match...)
	if n == 0 {
		return 0, 0
	}
	return s / n, n
}

// getData GETs one public API document and decodes its data.
func (g *generator) getData(path string, v any) error {
	req, err := http.NewRequest(http.MethodGet, g.base+path, nil)
	if err != nil {
		return err
	}
	body, err := g.do(req)
	if err != nil {
		return err
	}
	var env server.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return json.Unmarshal(env.Data, v)
}

func (g *generator) status() (*server.StatusResponse, error) {
	var st server.StatusResponse
	return &st, g.getData("/v1/status", &st)
}

func (g *generator) epochs() ([]server.EpochRecord, error) {
	var ep server.EpochsResponse
	err := g.getData("/v1/epochs", &ep)
	return ep.Epochs, err
}
