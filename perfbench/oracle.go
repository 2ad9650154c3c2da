package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"ebsn"
	"ebsn/internal/core"
	"ebsn/internal/vecmath"
)

// oracle answers every read kind by exhaustive scan over the same pruned
// candidate space the server indexes (see space), so a checked answer is
// wrong only if the serving path lost or invented a result.
type oracle struct {
	sp       *space
	userVec  func(int32) []float32
	evVecs   [][]float32 // test events, candidate order
	evStart  []time.Time
	testIdx  map[int32]int // dataset event ID -> candidate index
	partners [][]float32   // every user's row, the partner side
	live     []liveEvent   // ingested events, in arrival order
}

// liveEvent is one ingested event as the oracle sees it: its folded
// vector and its pruneK partners by preference (the delta tier's rule).
type liveEvent struct {
	vec      []float32
	partners []int32 // ascending
	cross    []float32
	kth      float32
}

func newOracle(rec *ebsn.Recommender, sp *space) (*oracle, error) {
	m := rec.Model()
	d := rec.Dataset()
	test := rec.Split().TestEvents
	if len(test) != len(sp.events) || d.NumUsers != sp.users {
		return nil, fmt.Errorf("oracle space covers %d users/%d events, server has %d/%d",
			sp.users, len(sp.events), d.NumUsers, len(test))
	}
	o := &oracle{sp: sp, userVec: m.UserVec, testIdx: make(map[int32]int, len(test))}
	for i, x := range test {
		if sp.events[i] != x {
			return nil, fmt.Errorf("oracle space event %d is %d, server has %d", i, sp.events[i], x)
		}
		o.evVecs = append(o.evVecs, m.EventVec(x))
		o.evStart = append(o.evStart, d.Events[x].Start)
		o.testIdx[x] = i
	}
	o.partners = make([][]float32, d.NumUsers)
	for u := range o.partners {
		o.partners[u] = m.UserVec(int32(u))
	}
	return o, nil
}

// newLive prunes an ingested event's folded vector to its candidate
// partners.
func (o *oracle) newLive(vec []float32) liveEvent {
	var h prefHeap
	for p, row := range o.partners {
		h.offer(pref{vecmath.Dot(vec, row), p}, o.sp.pruneK)
	}
	le := liveEvent{vec: vec, kth: h[0].s}
	keep := make([]int, len(h))
	for i, e := range h {
		keep[i] = e.x
	}
	sort.Ints(keep)
	for _, p := range keep {
		le.partners = append(le.partners, int32(p))
		le.cross = append(le.cross, vecmath.Dot(vec, o.partners[p]))
	}
	return le
}

// foldIn folds an ingested event the way the facade does — region from
// the first dataset event at the venue — but through a core snapshot the
// benchmark owns, so it never touches the served recommender's state.
func foldIn(rec *ebsn.Recommender, snap *core.Snapshot, ev ingestEvent) ([]float32, error) {
	g := rec.RelationGraphs()
	for x, e := range rec.Dataset().Events {
		if e.Venue == ev.Venue {
			return snap.FoldIn(g.Vocab, core.ColdEvent{Words: ev.Words, Region: int32(g.EventRegion[x]), Start: ev.Start})
		}
	}
	return nil, fmt.Errorf("venue %d hosts no dataset event", ev.Venue)
}

func tol(s float32) float64 { return 1e-4 * math.Max(1, math.Abs(float64(s))) }

func near(a, b float32) bool { return math.Abs(float64(a)-float64(b)) <= tol(b) }

// result is one pair of a ranked answer, in the server's ID space:
// dataset event IDs, or -(j+1) for the j-th ingested event.
type result struct {
	Event   int32   `json:"event"`
	Partner int32   `json:"partner"`
	Score   float32 `json:"score"`
}

// outranks is the canonical order: score, then partner, then event.
func (r result) outranks(o result) bool {
	if r.Score != o.Score {
		return r.Score > o.Score
	}
	if r.Partner != o.Partner {
		return r.Partner < o.Partner
	}
	return r.Event < o.Event
}

// topList keeps the best n results by insertion.
type topList struct {
	n   int
	out []result
}

func (t *topList) offer(r result) {
	if len(t.out) == t.n && !r.outranks(t.out[t.n-1]) {
		return
	}
	i := len(t.out)
	if i < t.n {
		t.out = append(t.out, r)
	} else {
		i = t.n - 1
	}
	for i > 0 && r.outranks(t.out[i-1]) {
		t.out[i] = t.out[i-1]
		i--
	}
	t.out[i] = r
}

// topPairs is the exhaustive joint top-n for user over the base space
// restricted to allowed events (nil allows all), plus the first m
// ingested events. Scores are summed in the server's operand order.
func (o *oracle) topPairs(user int32, n int, allowed []bool, m int) []result {
	uv := o.userVec(user)
	a := make([]float32, len(o.evVecs))
	for x, ev := range o.evVecs {
		a[x] = vecmath.Dot(uv, ev)
	}
	b := make([]float32, len(o.partners))
	for p, row := range o.partners {
		b[p] = vecmath.Dot(uv, row)
	}
	t := topList{n: n}
	pk := o.sp.pruneK
	for p := 0; p < o.sp.users; p++ {
		if int32(p) == user {
			continue
		}
		bp := b[p]
		for j := p * pk; j < (p+1)*pk; j++ {
			x := o.sp.evIdx[j]
			if allowed != nil && !allowed[x] {
				continue
			}
			s := a[x] + bp + o.sp.cross[j]
			if len(t.out) < n || s >= t.out[n-1].Score {
				t.offer(result{o.sp.events[x], int32(p), s})
			}
		}
	}
	for j := 0; j < m; j++ {
		le := &o.live[j]
		al := vecmath.Dot(uv, le.vec)
		for i, p := range le.partners {
			if p == user {
				continue
			}
			t.offer(result{-int32(j + 1), p, al + b[p] + le.cross[i]})
		}
	}
	return t.out
}

// pairScore recomputes one answered pair's score, reporting whether the
// pair is a candidate at all. A pair missing from the oracle's lists is
// accepted only on a tie at the partner's (or live event's) pruning
// boundary, where either side of the tie is a valid pruning.
func (o *oracle) pairScore(user int32, r result, allowed []bool, m int) (float32, error) {
	if r.Partner < 0 || int(r.Partner) >= o.sp.users || r.Partner == user {
		return 0, fmt.Errorf("partner %d is invalid for user %d", r.Partner, user)
	}
	uv := o.userVec(user)
	prow := o.partners[r.Partner]
	if r.Event < 0 {
		j := int(-r.Event - 1)
		if j >= m {
			return 0, fmt.Errorf("live event %d was not visible (%d ingested)", r.Event, m)
		}
		le := &o.live[j]
		i := sort.Search(len(le.partners), func(i int) bool { return le.partners[i] >= r.Partner })
		var c float32
		if i < len(le.partners) && le.partners[i] == r.Partner {
			c = le.cross[i]
		} else if c = vecmath.Dot(le.vec, prow); float64(c) < float64(le.kth)-tol(le.kth) {
			return 0, fmt.Errorf("pair (live %d, %d) is not a candidate", r.Event, r.Partner)
		}
		return vecmath.Dot(uv, le.vec) + vecmath.Dot(uv, prow) + c, nil
	}
	x, ok := o.testIdx[r.Event]
	if !ok {
		return 0, fmt.Errorf("event %d is not a test event", r.Event)
	}
	if allowed != nil && !allowed[x] {
		return 0, fmt.Errorf("event %d is outside the window", r.Event)
	}
	pk := o.sp.pruneK
	lst := o.sp.evIdx[int(r.Partner)*pk : int(r.Partner+1)*pk]
	i := sort.Search(len(lst), func(i int) bool { return int(lst[i]) >= x })
	var c float32
	if i < len(lst) && int(lst[i]) == x {
		c = o.sp.cross[int(r.Partner)*pk+i]
	} else if c = vecmath.Dot(prow, o.evVecs[x]); float64(c) < float64(o.sp.kth[r.Partner])-tol(o.sp.kth[r.Partner]) {
		return 0, fmt.Errorf("pair (%d, %d) is not a candidate", r.Event, r.Partner)
	}
	return vecmath.Dot(uv, o.evVecs[x]) + vecmath.Dot(uv, prow) + c, nil
}

// comparePairs accepts ans when it matches want rank by rank up to float
// rounding and every pair is a real candidate with the score claimed.
// Near-ties may order differently; a lost or invented result may not.
func (o *oracle) comparePairs(user int32, ans, want []result, allowed []bool, m int) error {
	if len(ans) != len(want) {
		return fmt.Errorf("%d pairs, oracle has %d", len(ans), len(want))
	}
	seen := make(map[[2]int32]bool, len(ans))
	for i, r := range ans {
		if !near(r.Score, want[i].Score) {
			return fmt.Errorf("rank %d scores %v, oracle %v", i, r.Score, want[i].Score)
		}
		key := [2]int32{r.Event, r.Partner}
		if seen[key] {
			return fmt.Errorf("pair (%d, %d) repeats", r.Event, r.Partner)
		}
		seen[key] = true
		s, err := o.pairScore(user, r, allowed, m)
		if err != nil {
			return err
		}
		if !near(r.Score, s) {
			return fmt.Errorf("pair (%d, %d) claims %v, scores %v", r.Event, r.Partner, r.Score, s)
		}
	}
	return nil
}

// topEvents is the exhaustive top-n test events by u·x.
func (o *oracle) topEvents(uv []float32, n int) []result {
	t := topList{n: n}
	for x, ev := range o.evVecs {
		// Partner 0 for all: ties fall back to ascending event, the
		// server's first-seen order.
		t.offer(result{o.sp.events[x], 0, vecmath.Dot(uv, ev)})
	}
	return t.out
}

func (o *oracle) compareEvents(uv []float32, ans []result, n int) error {
	want := o.topEvents(uv, n)
	if len(ans) != len(want) {
		return fmt.Errorf("%d events, oracle has %d", len(ans), len(want))
	}
	seen := make(map[int32]bool, len(ans))
	for i, r := range ans {
		if !near(r.Score, want[i].Score) {
			return fmt.Errorf("rank %d scores %v, oracle %v", i, r.Score, want[i].Score)
		}
		x, ok := o.testIdx[r.Event]
		if !ok || seen[r.Event] {
			return fmt.Errorf("event %d is not a test event or repeats", r.Event)
		}
		seen[r.Event] = true
		if s := vecmath.Dot(uv, o.evVecs[x]); !near(r.Score, s) {
			return fmt.Errorf("event %d claims %v, scores %v", r.Event, r.Score, s)
		}
	}
	return nil
}

// comparePartners checks one feed item's companions: the top m users by
// u·x + (u+x)·u', the joint score with the event fixed.
func (o *oracle) comparePartners(user int32, x int, ans []result, m int) error {
	uv := o.userVec(user)
	ev := o.evVecs[x]
	q := make([]float32, len(uv))
	for i := range q {
		q[i] = uv[i] + ev[i]
	}
	base := vecmath.Dot(uv, ev)
	t := topList{n: m}
	for p, row := range o.partners {
		if int32(p) != user {
			t.offer(result{0, int32(p), base + vecmath.Dot(q, row)})
		}
	}
	if len(ans) != len(t.out) {
		return fmt.Errorf("event %d: %d partners, oracle has %d", o.sp.events[x], len(ans), len(t.out))
	}
	for i, r := range ans {
		if !near(r.Score, t.out[i].Score) {
			return fmt.Errorf("event %d partner rank %d scores %v, oracle %v", o.sp.events[x], i, r.Score, t.out[i].Score)
		}
		if r.Partner < 0 || int(r.Partner) >= len(o.partners) || r.Partner == user {
			return fmt.Errorf("event %d: partner %d is invalid", o.sp.events[x], r.Partner)
		}
		if s := base + vecmath.Dot(q, o.partners[r.Partner]); !near(r.Score, s) {
			return fmt.Errorf("event %d partner %d claims %v, scores %v", o.sp.events[x], r.Partner, r.Score, s)
		}
	}
	return nil
}

// Wire shapes of the checked responses (the fields checks need).
type rankingJSON struct {
	User   int32    `json:"user"`
	Events []result `json:"events"`
	Pairs  []result `json:"pairs"`
}

type feedJSON struct {
	User  int32 `json:"user"`
	Items []struct {
		Event    int32    `json:"event"`
		Score    float32  `json:"score"`
		Partners []result `json:"partners"`
	} `json:"items"`
}

// check verifies one kept answer against the oracle.
func (o *oracle) check(m *mix, s *sample) error {
	user := s.req.user
	switch s.req.kind {
	case kFeed:
		var f feedJSON
		if err := json.Unmarshal(s.body, &f); err != nil {
			return fmt.Errorf("feed body: %w", err)
		}
		if f.User != user {
			return fmt.Errorf("answer for user %d, asked %d", f.User, user)
		}
		evs := make([]result, len(f.Items))
		for i, it := range f.Items {
			evs[i] = result{Event: it.Event, Score: it.Score}
		}
		if err := o.compareEvents(o.userVec(user), evs, topN); err != nil {
			return err
		}
		for _, it := range f.Items {
			if err := o.comparePartners(user, o.testIdx[it.Event], it.Partners, feedM); err != nil {
				return err
			}
		}
		return nil
	case kEvents:
		var r rankingJSON
		if err := json.Unmarshal(s.body, &r); err != nil {
			return fmt.Errorf("events body: %w", err)
		}
		if r.User != user {
			return fmt.Errorf("answer for user %d, asked %d", r.User, user)
		}
		return o.compareEvents(o.userVec(user), r.Events, topN)
	}
	var r rankingJSON
	if err := json.Unmarshal(s.body, &r); err != nil {
		return fmt.Errorf("%s body: %w", s.req.kind, err)
	}
	if r.User != user {
		return fmt.Errorf("answer for user %d, asked %d", r.User, user)
	}
	var allowed []bool
	if s.req.kind == kConstrained {
		w := m.windows[s.req.win]
		allowed = make([]bool, len(o.evStart))
		for x, t := range o.evStart {
			allowed[x] = w.allows(t)
		}
	}
	// Only live reads see ingested events. A live read raced at most the
	// ingests in flight while it ran: it is right if it matches the space
	// with any visible prefix of them.
	lo, hi := 0, 0
	if s.req.kind == kLive {
		lo, hi = s.liveLo, s.liveHi
	}
	var err error
	for v := lo; v <= hi; v++ {
		if err = o.comparePairs(user, r.Pairs, o.topPairs(user, topN, allowed, v), allowed, v); err == nil {
			return nil
		}
	}
	return err
}
