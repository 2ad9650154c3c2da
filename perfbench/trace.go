package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ebsn"
	"ebsn/internal/core"
	"ebsn/internal/engine"
	"ebsn/internal/ta"
	"ebsn/internal/vecmath"
	"ebsn/internal/workload"
)

// span is one timed call, recorded by the benchmark around a public
// call into a layer. Spans of one request share Req; Parent links a
// layer's call to the request (or call) it decomposes.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Req    int64              `json:"req,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer holds the traced run's spans in memory until the run ends, and
// replays each answered request against the layers below the HTTP
// stack. It never instruments the program: every span brackets a call
// the benchmark makes itself.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
	off   atomic.Bool // replays paused (the untraced baseline half)

	// mutating is held by the ingest writer and the operator around each
	// mutation of the served recommender; replays only run while they
	// can take it shared, because the facade requires mutations to be
	// serialized with queries.
	mutating sync.RWMutex

	rec  *ebsn.Recommender
	lay  *layers
	snap *core.Snapshot

	// Replay selection, guarded by mu.
	seen, picked [numKinds]int
	queue        []pending
}

// layers are the benchmark's own instances of the lower layers, built
// from the served model's vectors with the server's configuration, so a
// request can be replayed layer by layer.
type layers struct {
	k        int
	set      *ta.CandidateSet
	idx      *ta.FastIndex
	packed   []float32 // partner rows, row-major, as the index streams them
	partners [][]float32
	test     []int32
}

func newTracer(rec *ebsn.Recommender) *tracer {
	return &tracer{t0: time.Now(), rec: rec, snap: rec.Model().Snapshot()}
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) span(req, parent int64, name string, start, end time.Time) int64 {
	return t.spanAttrs(req, parent, name, start, end, nil)
}

func (t *tracer) spanAttrs(req, parent int64, name string, start, end time.Time, attrs map[string]float64) int64 {
	id := t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: t.ns(start), End: t.ns(end), Attrs: attrs})
	t.mu.Unlock()
	return id
}

// jointVectors copies the served model's test-event and partner rows the
// way the facade hands them to the index builders.
func jointVectors(rec *ebsn.Recommender) (events, partners [][]float32) {
	m := rec.Model()
	for _, x := range rec.Split().TestEvents {
		events = append(events, m.EventVec(x))
	}
	for u := 0; u < rec.Dataset().NumUsers; u++ {
		partners = append(partners, m.UserVec(int32(u)))
	}
	return events, partners
}

// buildLayers times engine.Build with the server's configuration and
// keeps the built index for per-layer replays.
func (t *tracer) buildLayers(pruneK, shards, workers int) error {
	events, partners := jointVectors(t.rec)
	t0 := time.Now()
	eng, err := engine.Build(events, partners, engine.Config{Shards: shards, TopKEvents: pruneK, Workers: workers})
	if err != nil {
		return err
	}
	t.span(0, 0, "engine.build", t0, time.Now())
	if eng.Set() == nil {
		// Several shards: replay the walk on a one-shard build instead.
		if eng, err = engine.Build(events, partners, engine.Config{Shards: 1, TopKEvents: pruneK, Workers: workers}); err != nil {
			return err
		}
	}
	lay := &layers{k: eng.K(), set: eng.Set(), idx: eng.Index(), test: t.rec.Split().TestEvents}
	_, lay.partners = jointVectors(t.rec)
	for _, row := range lay.partners {
		lay.packed = append(lay.packed, row...)
	}
	t.lay = lay
	return nil
}

// Replays per kind: every replayStride-th answered read, at most
// replayCap of them.
const (
	replayStride = 2
	replayCap    = 300
)

// pending is an answered read waiting for its replay.
type pending struct {
	req      request
	id, root int64
}

// observe records an answered read's HTTP span and picks it for replay.
// Live reads replay at once, because the delta they ran against changes
// with every ingest; the others replay after the traffic, on an idle
// machine, so replays neither load the measured server nor get slowed
// by it.
func (t *tracer) observe(r *runner, req request, sent, done time.Time, bytes int) {
	if t.off.Load() {
		return
	}
	id := t.ids.Add(1)
	root := t.spanAttrs(id, 0, "http."+req.kind.String(), sent, done, map[string]float64{"bytes": float64(bytes)})
	t.mu.Lock()
	t.seen[req.kind]++
	pick := t.seen[req.kind]%replayStride == 1 && t.picked[req.kind] < replayCap
	if pick {
		t.picked[req.kind]++
		if req.kind != kLive {
			t.queue = append(t.queue, pending{req, id, root})
		}
	}
	t.mu.Unlock()
	if pick && req.kind == kLive {
		t.replayLive(id, root, req.user)
	}
}

// replayLive times the live joint query with the delta as it stands,
// unless an ingest or fold is in flight: the facade requires mutations
// to be serialized with queries, so the replay skips rather than race.
func (t *tracer) replayLive(id, root int64, u int32) {
	if !t.mutating.TryRLock() {
		return
	}
	pend, pairs := t.rec.PendingLiveEvents(), t.rec.PendingLivePairs()
	s := time.Now()
	_, _, _ = t.rec.TopEventPartnersLiveStats(u, topN)
	e := time.Now()
	t.mutating.RUnlock()
	t.spanAttrs(id, root, "ebsn.live", s, e, map[string]float64{"pending_events": float64(pend), "delta_pairs": float64(pairs)})
}

// flush replays the queued reads layer by layer, one at a time.
func (t *tracer) flush(r *runner) {
	t.mu.Lock()
	q := t.queue
	t.queue = nil
	t.mu.Unlock()
	rec := t.rec
	for _, p := range q {
		id, root, u := p.id, p.root, p.req.user
		uv := rec.Model().UserVec(u)
		switch p.req.kind {
		case kEvents:
			s := time.Now()
			_, _ = rec.TopEvents(u, topN)
			t.span(id, root, "ebsn.events", s, time.Now())
		case kPartners:
			t.replayPartners(id, root, u, uv)
		case kConstrained:
			w := r.mix.windows[p.req.win]
			c := ebsn.Constraint{From: w.from, Until: w.until}
			s := time.Now()
			pred, _ := workload.Compile(c, rec.Dataset(), rec.Split().TestEvents)
			e := time.Now()
			t.spanAttrs(id, root, "workload.compile", s, e, map[string]float64{"selectivity": pred.Selectivity()})
			s = time.Now()
			_, _, _ = rec.TopEventPartnersConstrainedStats(u, topN, c)
			t.span(id, root, "ebsn.constrained", s, time.Now())
		case kFeed:
			s := time.Now()
			items, _ := rec.Feed(u, topN, feedM)
			parent := t.span(id, root, "ebsn.feed", s, time.Now())
			var q []float32
			for _, it := range items {
				s := time.Now()
				_, q = workload.JoinPartners(uv, rec.Model().EventVec(it.Event), t.lay.partners, u, feedM, q)
				t.span(id, parent, "workload.join", s, time.Now())
			}
		}
	}
}

// replayPartners times the joint query through the facade, then replays
// its two dominant steps on the benchmark's own index: the TA walk given
// the event affinities, and the partner dot pass alone.
func (t *tracer) replayPartners(id, root int64, u int32, uv []float32) {
	s := time.Now()
	_, es, err := t.rec.TopEventPartnersShardedStats(u, topN)
	e := time.Now()
	if err != nil {
		return
	}
	var wall time.Duration
	for _, sh := range es.Shards {
		wall = max(wall, sh.Wall)
	}
	nx, nu := float64(len(t.lay.test)), float64(len(t.lay.partners))
	k := float64(t.lay.k)
	ra, sa := float64(es.Agg.RandomAccesses), float64(es.Agg.SortedAccesses)
	t.spanAttrs(id, root, "ebsn.partners", s, e, map[string]float64{
		"prepass_us":    float64(es.Prepass) / 1e3,
		"shard_wall_us": float64(wall) / 1e3,
		"merge_us":      float64(es.Merge) / 1e3,
		"access_frac":   es.Agg.AccessFraction(),
		"sorted":        sa,
		"random":        ra,
		"flops":         2*k*(nx+nu) + 2*ra,
		"bytes":         4*k*(nx+nu) + 16*ra + 8*sa,
	})
	lay := t.lay
	sc := ta.GetScratch()
	defer ta.PutScratch(sc)
	aff := lay.set.EventAffinities(uv, nil)
	s = time.Now()
	_, _ = lay.idx.TopNExcludingAffScratch(uv, aff, topN, u, sc)
	walkEnd := time.Now()
	walk := t.span(id, root, "ta.walk", s, walkEnd)
	out := make([]float32, len(lay.partners))
	s = time.Now()
	vecmath.DotBatch(uv, lay.packed, lay.k, out)
	t.span(id, walk, "vecmath.partner_dot", s, time.Now())
}

// foldIn times core's fold-in of an ingested event on the benchmark's
// own snapshot of the served model.
func (t *tracer) foldIn(ev ingestEvent) {
	if t.off.Load() {
		return
	}
	s := time.Now()
	if _, err := foldIn(t.rec, t.snap, ev); err == nil {
		t.span(0, 0, "core.foldin", s, time.Now())
	}
}

// timeSetupLayers times, once each, the calls ebsn.Open and Warm are
// built from: dataset import, snapshot restore and the candidate build.
func (t *tracer) timeSetupLayers(dir string, pruneK, workers int) error {
	s := time.Now()
	if _, err := ebsn.LoadDatasetCSV(dir + "/dataset"); err != nil {
		return err
	}
	t.span(0, 0, "ebsnet.import", s, time.Now())
	s = time.Now()
	if _, err := ebsn.LoadModelSnapshot(dir + "/model.gob"); err != nil {
		return err
	}
	t.span(0, 0, "core.restore", s, time.Now())
	events, partners := jointVectors(t.rec)
	s = time.Now()
	if _, err := ta.BuildCandidates(events, partners, ta.BuildConfig{TopKEvents: pruneK, Workers: workers}); err != nil {
		return err
	}
	t.span(0, 0, "ta.build_candidates", s, time.Now())
	return nil
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats groups span durations (µs) and attributes by span name.
type spanStats struct {
	us    map[string][]float64
	attrs map[string]map[string][]float64
	spans []span
}

func (t *tracer) stats() *spanStats {
	st := &spanStats{us: map[string][]float64{}, attrs: map[string]map[string][]float64{}}
	t.mu.Lock()
	st.spans = append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(st.spans, func(a, b int) bool { return st.spans[a].ID < st.spans[b].ID })
	for _, s := range st.spans {
		st.us[s.Name] = append(st.us[s.Name], s.us())
		for k, v := range s.Attrs {
			if st.attrs[s.Name] == nil {
				st.attrs[s.Name] = map[string][]float64{}
			}
			st.attrs[s.Name][k] = append(st.attrs[s.Name][k], v)
		}
	}
	return st
}

// selfUS is the median, over spans named name, of the span's duration
// minus the durations of its children named child.
func (st *spanStats) selfUS(name, child string) float64 {
	kids := map[int64]float64{}
	for _, s := range st.spans {
		if s.Name == child {
			kids[s.Parent] += s.us()
		}
	}
	var self []float64
	for _, s := range st.spans {
		if s.Name == name {
			self = append(self, s.us()-kids[s.ID])
		}
	}
	return median(self)
}

// tail returns the highest of p99, p95 and p90 the samples support, and
// which it was.
func tail(vals []float64) (float64, string) {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if v, err := percentile(vals, q); err == nil {
			return v, fmt.Sprintf("p%g of %d", 100*q, len(vals))
		}
	}
	return median(vals), fmt.Sprintf("p50 of %d", len(vals))
}
