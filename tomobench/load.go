package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// visibilityGrace bounds how long queries keep running after the
// measured phase to see its last batches published.
const visibilityGrace = 5 * time.Second

// stealSlot is the length of the slots a phase is cut into to tell the
// seconds in which the hypervisor stole CPU time from the quiet ones.
// On a shared host steal comes in bursts of several seconds and slows
// every timing in them alike (10% steal read +25-30% on POST and query
// medians), so the medians leave out the noisy slots (see quietest).
const stealSlot = time.Second

// phase is the outcome of one measured phase of live traffic.
type phase struct {
	elapsed time.Duration

	posts, postsFailed     int
	queries, queriesFailed int
	intervals              int // acknowledged
	lastPost               int // global index of the next POST after the phase

	ingestMs, queryMs, visibleMs []float64
	ingestDue, queryDue          []time.Time // due time of each ingestMs, queryMs sample
	visibleDue                   []time.Time // due time of each visibleMs sample
	ackedDue                     []time.Time // due time of each acknowledged POST
	lateMs                       []float64   // send time past due, POSTs and queries
	lagIntervals                 []float64   // acknowledged seq past the answer's seq_high, per query
	invisible                    int         // acknowledged batches no query saw within the grace

	slots    []time.Time // slot k of the phase is [slots[k], slots[k+1])
	quiet    []bool      // the slots quietest chose
	stealPct float64     // share of CPU time stolen over the whole phase
	quietPct float64     // the same over the quiet slots
}

// quietOnly returns the samples of xs whose due time (in due) fell in a
// quiet slot.
func (p *phase) quietOnly(xs []float64, due []time.Time) []float64 {
	var out []float64
	for i, x := range xs {
		if p.isQuiet(due[i]) {
			out = append(out, x)
		}
	}
	return out
}

// quietRate is the intervals of acknowledged POSTs due in quiet slots
// per second of quiet slots.
func (p *phase) quietRate(batch int) float64 {
	var secs float64
	for k, q := range p.quiet {
		if q {
			secs += p.slots[k+1].Sub(p.slots[k]).Seconds()
		}
	}
	n := 0
	for _, t := range p.ackedDue {
		if p.isQuiet(t) {
			n += batch
		}
	}
	return float64(n) / secs
}

func (p *phase) isQuiet(t time.Time) bool {
	k := sort.Search(len(p.slots), func(i int) bool { return p.slots[i].After(t) }) - 1
	return p.quiet[min(max(k, 0), len(p.quiet)-1)]
}

// stealNoise is the share of its CPU time the hypervisor may steal from
// a slot or a set-up before it counts as noisy. Quiet stretches of the
// shared host read 0-1.5% per second, its bursts 3-13%.
const stealNoise = 0.02

// quietest marks the readings whose steal is at most stealNoise of their
// CPU time. When fewer than half of them are, it marks the half with the
// least steal instead, the earlier first among equals.
func quietest(steal, total []uint64) []bool {
	share := make([]float64, len(steal))
	quiet := make([]bool, len(steal))
	n := 0
	for i := range steal {
		if total[i] > 0 {
			share[i] = float64(steal[i]) / float64(total[i])
		}
		if share[i] <= stealNoise {
			quiet[i] = true
			n++
		}
	}
	half := (len(steal) + 1) / 2
	if n >= half {
		return quiet
	}
	order := make([]int, len(steal))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return share[order[a]] < share[order[b]] })
	quiet = make([]bool, len(steal))
	for _, i := range order[:half] {
		quiet[i] = true
	}
	return quiet
}

// pendingBatch is an acknowledged batch waiting for a query to show it.
type pendingBatch struct {
	seq uint64
	due time.Time
}

// visibility matches acknowledged batches to the first query answer
// whose seq_high covers them. The ingest goroutine pushes, the query
// goroutine pops; batches are acknowledged in sequence order.
type visibility struct {
	mu      sync.Mutex
	pending []pendingBatch
	samples []float64
	dues    []time.Time   // due time of each sample
	acked   atomic.Uint64 // highest acknowledged seq
}

func (v *visibility) push(seq uint64, due time.Time) {
	v.mu.Lock()
	v.pending = append(v.pending, pendingBatch{seq, due})
	v.mu.Unlock()
	v.acked.Store(seq)
}

// seen records an answer carrying seqHigh at time at.
func (v *visibility) seen(seqHigh uint64, at time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for n < len(v.pending) && v.pending[n].seq <= seqHigh {
		v.samples = append(v.samples, ms(at.Sub(v.pending[n].due)))
		v.dues = append(v.dues, v.pending[n].due)
		n++
	}
	v.pending = v.pending[n:]
}

func (v *visibility) outstanding() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.pending)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sleepUntil blocks the calling goroutine's thread in nanosleep until t.
// time.Sleep is not used: when every goroutine is parked the Go runtime
// waits for its timers in epoll_wait, whose timeout is whole
// milliseconds, so a request due in 0.3ms would go out up to 1ms late
// and its latency would read the timer's rounding, not the server.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// generator sends one workload's traffic at a deployment: one goroutine
// POSTs observations, one GETs queries.
type generator struct {
	w      *workload
	c      *corpus
	base   string
	client *http.Client
	tr     *tracer // nil when untraced
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
}

// run drives live traffic for dur, starting at global POST index
// firstPost, then keeps querying (unrecorded) until every acknowledged
// batch has been seen or the grace runs out. Meanwhile it reads the
// host's steal once per slot.
func (g *generator) run(firstPost int, dur time.Duration) *phase {
	p := &phase{lastPost: firstPost}
	vis := &visibility{}
	nSlots := max(int(math.Round(dur.Seconds()/stealSlot.Seconds())), 1)
	steal, total := make([]uint64, nSlots), make([]uint64, nSlots)
	p.slots = make([]time.Time, nSlots+1)
	steal0, total0 := hostSteal()
	t0 := time.Now()
	end := t0.Add(dur)
	p.slots[0] = t0
	var ingestDone atomic.Bool
	var wg sync.WaitGroup
	var queryLate []float64
	wg.Add(2)
	go func() {
		defer wg.Done()
		queryLate = g.queryLoop(p, vis, t0, end, &ingestDone)
	}()
	go func() {
		defer wg.Done()
		prevSteal, prevTotal := steal0, total0
		for k := range nSlots {
			sleepUntil(t0.Add(dur * time.Duration(k+1) / time.Duration(nSlots)))
			curSteal, curTotal := hostSteal()
			p.slots[k+1] = time.Now()
			steal[k], total[k] = curSteal-prevSteal, curTotal-prevTotal
			prevSteal, prevTotal = curSteal, curTotal
		}
	}()
	g.ingestLoop(p, vis, t0, end)
	p.elapsed = time.Since(t0)
	steal1, total1 := hostSteal()
	ingestDone.Store(true)
	wg.Wait()
	p.quiet = quietest(steal, total)
	p.stealPct = stealPct(steal0, total0, steal1, total1)
	var qSteal, qTotal uint64
	for k, q := range p.quiet {
		if q {
			qSteal, qTotal = qSteal+steal[k], qTotal+total[k]
		}
	}
	p.quietPct = stealPct(0, 0, qSteal, qTotal)
	p.lateMs = append(p.lateMs, queryLate...)
	p.visibleMs, p.visibleDue = vis.samples, vis.dues
	p.invisible = vis.outstanding()
	for _, b := range vis.pending {
		p.visibleMs = append(p.visibleMs, math.Inf(1)) // never seen: misses any limit
		p.visibleDue = append(p.visibleDue, b.due)
	}
	return p
}

func (g *generator) ingestLoop(p *phase, vis *visibility, t0, end time.Time) {
	period := time.Duration(float64(time.Second) * float64(g.w.batch) / max(g.w.rate, 1))
	for j := 0; ; j++ {
		due := t0.Add(time.Duration(j) * period)
		if !due.Before(end) {
			return
		}
		sleepUntil(due)
		sent := time.Now()
		body := g.c.post(p.lastPost)
		seq, err := g.postBatch(body)
		done := time.Now()
		p.lastPost++
		p.posts++
		p.ingestMs = append(p.ingestMs, ms(done.Sub(due)))
		p.ingestDue = append(p.ingestDue, due)
		p.lateMs = append(p.lateMs, ms(sent.Sub(due)))
		if g.tr != nil {
			g.tr.span("loadgen.post", 0, seq, sent, done)
		}
		if err != nil {
			p.postsFailed++
			continue
		}
		p.intervals += g.w.batch
		p.ackedDue = append(p.ackedDue, due)
		vis.push(seq, due)
	}
}

func (g *generator) queryLoop(p *phase, vis *visibility, t0, end time.Time, ingestDone *atomic.Bool) (late []float64) {
	period := time.Duration(float64(time.Second) / g.w.queryRate)
	graceEnd := end.Add(visibilityGrace)
	for j := 0; ; j++ {
		due := t0.Add(time.Duration((float64(j) + g.c.jitter[j%len(g.c.jitter)]) * float64(period)))
		recorded := due.Before(end)
		if !recorded {
			if ingestDone.Load() && vis.outstanding() == 0 || !due.Before(graceEnd) {
				return late
			}
			if !ingestDone.Load() {
				// The last POST is still in flight; wait for it
				// rather than issue unrecorded queries.
				time.Sleep(time.Millisecond)
				j--
				continue
			}
		}
		sleepUntil(due)
		sent := time.Now()
		kind := g.c.kinds[j%len(g.c.kinds)]
		seqHigh, err := g.query(kind, g.c.links[j%len(g.c.links)])
		done := time.Now()
		if err == nil {
			vis.seen(seqHigh, done)
		}
		if !recorded {
			continue
		}
		p.queries++
		p.queryMs = append(p.queryMs, ms(done.Sub(due)))
		p.queryDue = append(p.queryDue, due)
		late = append(late, ms(sent.Sub(due)))
		if g.tr != nil {
			g.tr.span("loadgen.query."+queryKindNames[kind], 0, seqHigh, sent, done)
		}
		if err != nil {
			p.queriesFailed++
			continue
		}
		p.lagIntervals = append(p.lagIntervals, float64(vis.acked.Load())-float64(seqHigh))
	}
}

// postBatch POSTs one pre-encoded batch and returns the acknowledged seq.
func (g *generator) postBatch(body []byte) (uint64, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, g.base+"/v1/observations", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	out, err := g.do(req)
	if err != nil {
		return 0, err
	}
	return jsonUint(out, `"seq":`)
}

// query GETs one read of the mix and returns the answer's seq_high.
func (g *generator) query(kind, link int) (uint64, error) {
	path, key := queryTarget(kind, link)
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, g.base+path, nil)
	if err != nil {
		return 0, err
	}
	out, err := g.do(req)
	if err != nil {
		return 0, err
	}
	return jsonUint(out, key)
}

// do sends req and returns the body of a 2xx answer.
func (g *generator) do(req *http.Request) ([]byte, error) {
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %.200s", req.Method, req.URL.Path, resp.StatusCode, out)
	}
	return out, nil
}

// jsonUint reads the unsigned integer after key in a JSON body, without
// decoding the rest: the generator must stay cheap next to the server.
func jsonUint(body []byte, key string) (uint64, error) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("answer has no %s", key)
	}
	rest := body[i+len(key):]
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	return strconv.ParseUint(string(rest[:n]), 10, 64)
}
