package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clientTimeout bounds one request from the client's side; the server's
// own per-request timeout (5s) answers 503 first.
const clientTimeout = 10 * time.Second

// client is one HTTP client with a fixed connection budget.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: clientTimeout}}
}

// do sends one request and reads the whole body into buf. Status 0 means
// no response arrived (transport error or client timeout).
func (c *client) do(method, path string, body []byte, buf *bytes.Buffer) int {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0
	}
	return resp.StatusCode
}

func (c *client) close() { c.hc.CloseIdleConnections() }

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// outcome is one finished read.
type outcome struct {
	kind   kind
	status int
	lat    time.Duration // from the due time (open loop) or the send (closed loop)
	bytes  int
	done   time.Time
	// pending is, for a live read, the ingests acknowledged before it was
	// sent that no completed compaction had yet folded: the delta it scans.
	pending int
}

// sample is an answer kept for the oracle. liveLo..liveHi bound how many
// ingested events the read could have seen: those acknowledged before
// it was sent, up to those sent before its answer arrived.
type sample struct {
	req            request
	body           []byte
	liveLo, liveHi int
	capacity       bool // a closed-loop answer counted toward capacity_qps
	wrong          bool // the oracle rejected it
}

// keeper selects and holds the answers to check: per kind and phase,
// every stride-th answer up to a cap. The caps bound the oracle's work
// per run (a joint check scans all ~8M candidate pairs).
type keeper struct {
	mu     sync.Mutex
	stride [numKinds]int
	cap    [numKinds]int
	seen   [numKinds]int
	kept   [numKinds]int
	list   []*sample
}

func newKeeper() keeper {
	return keeper{
		stride: [numKinds]int{kEvents: 4, kPartners: 6, kConstrained: 3, kFeed: 2, kLive: 4},
		cap:    [numKinds]int{kEvents: 120, kPartners: 45, kConstrained: 30, kFeed: 10, kLive: 45},
	}
}

// reset starts a new phase's selection.
func (k *keeper) reset() {
	k.mu.Lock()
	k.seen, k.kept = [numKinds]int{}, [numKinds]int{}
	k.mu.Unlock()
}

func (k *keeper) want(kd kind) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.seen[kd]++
	if (k.seen[kd]-1)%k.stride[kd] != 0 || k.kept[kd] >= k.cap[kd] {
		return false
	}
	k.kept[kd]++
	return true
}

func (k *keeper) add(s *sample) {
	k.mu.Lock()
	k.list = append(k.list, s)
	k.mu.Unlock()
}

// ingestLog is the ordered record of every event sent to /v1/ingest: the
// j-th entry is the event the server numbers -(j+1).
type ingestLog struct {
	mu     sync.Mutex
	events []ingestEvent
	sent   atomic.Int64 // ingests sent
	acked  atomic.Int64 // ingests answered
}

func (l *ingestLog) record(ev ingestEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
	l.sent.Add(1)
}

func (l *ingestLog) snapshot() []ingestEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ingestEvent(nil), l.events...)
}

// runner drives one workload against the server under test.
type runner struct {
	mix    *mix
	reads  *client // at most nproc connections: the read load
	writes *client // one connection: the ingest feed
	ops    *client // one connection: the operator's compactions
	limit  time.Duration
	keep   keeper
	ing    ingestLog
	tr     *tracer // nil in untraced runs

	compactEvery int
	compactCh    chan struct{} // one pending compaction request at most
	folded       atomic.Int64  // ingests acknowledged before the last completed compaction was sent

	mu         sync.Mutex
	ingestLat  []float64 // ms, from the due time
	compactLat []float64 // ms
	writeFails int
	writes0    int // writes attempted
}

// newRunner drives the server at base with nproc read connections, one
// ingest connection and one operator connection.
func newRunner(base string, m *mix, nproc int, limit time.Duration) *runner {
	return &runner{
		mix: m, reads: newClient(base, nproc), writes: newClient(base, 1), ops: newClient(base, 1),
		limit: limit, keep: newKeeper(), compactCh: make(chan struct{}, 1),
	}
}

// read sends one read and records its outcome, keeping the answer for
// the oracle when selected.
func (r *runner) read(req request, due time.Time, closed bool) outcome {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	lo := r.ing.acked.Load()
	sent := time.Now()
	status := r.reads.do(http.MethodGet, r.mix.path(req), nil, buf)
	done := time.Now()
	hi := r.ing.sent.Load()
	if due.IsZero() {
		due = sent
	}
	o := outcome{kind: req.kind, status: status, lat: done.Sub(due), bytes: buf.Len(), done: done}
	if req.kind == kLive {
		o.pending = int(lo - r.folded.Load())
	}
	if status == http.StatusOK && r.keep.want(req.kind) {
		r.keep.add(&sample{
			req: req, body: append([]byte(nil), buf.Bytes()...),
			liveLo: int(lo), liveHi: int(hi),
			capacity: closed && o.lat <= r.limit,
		})
	}
	if r.tr != nil {
		r.tr.observe(r, req, sent, done, buf.Len())
	}
	return o
}

// openLoop sends arrivals on their schedule from start, whatever the
// server's pace, over conns connections. Each read's latency runs from
// its due time, so a stall also charges the reads queued behind it. It
// returns the outcomes in schedule order and how late the dispatcher
// handed each read over.
func (r *runner) openLoop(arrivals []arrival, start time.Time, conns int) ([]outcome, []float64) {
	outs := make([]outcome, len(arrivals))
	late := make([]float64, len(arrivals))
	queue := make(chan int, len(arrivals)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				outs[i] = r.read(arrivals[i].req, start.Add(arrivals[i].at), false)
			}
		}()
	}
	for i, a := range arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = float64(time.Since(due)) / float64(time.Millisecond)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs, late
}

// closedLoop runs conns clients that each send their next read as soon
// as the previous answer arrives, until end.
func (r *runner) closedLoop(conns int, end time.Time, streamBase uint64) []outcome {
	per := make([][]outcome, conns)
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer wg.Done()
			d := r.mix.stream(streamBase + uint64(c))
			for time.Now().Before(end) {
				per[c] = append(per[c], r.read(d.next(), time.Time{}, true))
			}
		}(c)
	}
	wg.Wait()
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// warmUp sends n reads drawn from the warm-up stream over conns
// connections, each as soon as a connection is free. A fixed count
// rather than a fixed time, so the result cache holds the same keys when
// the measured phases start however fast the host ran.
func (r *runner) warmUp(conns, n int) {
	d := r.mix.stream(streamWarm)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = d.next()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				r.read(reqs[i], time.Time{}, false)
			}
		}()
	}
	wg.Wait()
}

// ingest posts one event; the latency runs from its due time.
func (r *runner) ingest(ev ingestEvent, due time.Time) {
	body, err := json.Marshal(ev)
	if err != nil {
		panic(err) // a fixed struct of strings, ints and times always encodes
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	if r.tr != nil {
		r.tr.mutating.Lock()
	}
	r.ing.record(ev)
	status := r.writes.do(http.MethodPost, "/v1/ingest", body, buf)
	if r.tr != nil {
		r.tr.mutating.Unlock()
	}
	lat := float64(time.Since(due)) / float64(time.Millisecond)
	acked := r.ing.acked.Add(1)
	r.mu.Lock()
	r.writes0++
	r.ingestLat = append(r.ingestLat, lat)
	if status != http.StatusOK {
		r.writeFails++
	}
	r.mu.Unlock()
	if r.tr != nil {
		r.tr.foldIn(ev)
	}
	if status == http.StatusOK && r.compactEvery > 0 && acked%int64(r.compactEvery) == 0 {
		select {
		case r.compactCh <- struct{}{}:
		default: // one already queued; it folds this batch too
		}
	}
}

// compact runs one synchronous compaction, as an operator with
// auto-compact off would.
func (r *runner) compact() {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	if r.tr != nil {
		r.tr.mutating.Lock()
	}
	acked := r.ing.acked.Load()
	t0 := time.Now()
	status := r.ops.do(http.MethodPost, "/v1/compact?wait=1", nil, buf)
	t1 := time.Now()
	if status == http.StatusOK {
		// Every acknowledged ingest is in the delta, so the fold covered
		// at least those acknowledged before the request.
		r.folded.Store(acked)
	}
	if r.tr != nil {
		r.tr.mutating.Unlock()
		r.tr.span(0, 0, "ebsn.compact", t0, t1)
	}
	r.mu.Lock()
	r.writes0++
	r.compactLat = append(r.compactLat, float64(t1.Sub(t0))/float64(time.Millisecond))
	if status != http.StatusOK {
		r.writeFails++
	}
	r.mu.Unlock()
}

// feed runs the ingest writer at rate events per second from start until
// end, and the operator compacting after every compactEvery acknowledged
// ingests. It returns once both have stopped.
func (r *runner) feed(rate float64, start, end time.Time) {
	stop := make(chan struct{})
	var op sync.WaitGroup
	op.Add(1)
	go func() {
		defer op.Done()
		for {
			select {
			case <-r.compactCh:
				r.compact()
			case <-stop:
				return
			}
		}
	}()
	d := r.mix.stream(streamIngest)
	step := time.Duration(float64(time.Second) / rate)
	for due := start; due.Before(end); due = due.Add(step) {
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		r.ingest(d.ingest(), due)
	}
	close(stop)
	op.Wait()
}

// Request stream ids: each use of the workload seed draws from its own
// stream, so changing one phase never shifts another's inputs.
const (
	streamOpen     = 1
	streamIngest   = 2
	streamSweep    = 4
	streamWarm     = 100
	streamClosed   = 200
	streamCalib    = 300
	streamBaseline = 400
)
