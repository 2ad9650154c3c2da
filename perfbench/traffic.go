package main

import (
	"math"
	"math/rand/v2"
	"net/url"
	"sort"
	"strconv"
	"time"
)

// kind is a request type of the benchmark's traffic.
type kind uint8

const (
	kEvents      kind = iota // GET /v1/events
	kPartners                // GET /v1/partners
	kConstrained             // GET /v1/partners with a from/until window
	kFeed                    // GET /v1/feed
	kLive                    // GET /v1/partners/live
	numKinds
)

var kindNames = [numKinds]string{"events", "partners", "constrained", "feed", "live"}

func (k kind) String() string { return kindNames[k] }

// Request shape shared by every read: the top n results, and for the
// feed m companions per event.
const (
	topN  = 10
	feedM = 3
)

// request is one read the load generator sends.
type request struct {
	kind kind
	user int32
	win  int // index into the mix's windows (kConstrained only)
}

// window is a half-open [from, until) start-time constraint at second
// resolution — the resolution the wire format carries.
type window struct {
	from, until time.Time
	sel         float64 // share of test events inside
}

// ingestEvent is one synthetic cold event for POST /v1/ingest.
type ingestEvent struct {
	Words []string  `json:"words"`
	Venue int32     `json:"venue"`
	Start time.Time `json:"start"`
}

// universe is what the traffic generator needs to know about the served
// dataset: how many users there are and the test events' metadata.
type universe struct {
	users      int
	testStarts []time.Time // per test event, candidate order
	testVenues []int32
	testWords  [][]string
}

// mix generates a workload's requests deterministically from its seed.
// Users are drawn through a seeded permutation, so popularity is not
// tied to user ID (and through it to the generator's communities).
type mix struct {
	workload string
	seed     uint64
	u        *universe
	perm     []int32
	zipf     []float64 // cumulative rank weights; nil draws uniformly
	windows  []window
}

const (
	zipfS      = 1.1
	numWindows = 16
	minSel     = 0.05
	maxSel     = 0.25
)

func newMix(workload string, seed uint64, u *universe) *mix {
	rng := rand.New(rand.NewPCG(seed, 0x7065726d)) // stream "perm"
	m := &mix{workload: workload, seed: seed, u: u, perm: make([]int32, u.users)}
	for i, p := range rng.Perm(u.users) {
		m.perm[i] = int32(p)
	}
	if workload == "mixed-zipf" {
		m.zipf = make([]float64, u.users)
		var sum float64
		for r := range m.zipf {
			sum += math.Pow(float64(r+1), -zipfS)
			m.zipf[r] = sum
		}
		for r := range m.zipf {
			m.zipf[r] /= sum
		}
	}
	// Every workload has windows: the traced sweep sends constrained reads
	// on all of them.
	m.windows = makeWindows(rand.New(rand.NewPCG(seed, 0x77696e64)), u.testStarts) // "wind"
	return m
}

// makeWindows draws numWindows time windows, covering shares of the test
// events spread over [minSel, maxSel]. A small shared set stands for the
// handful of date filters an app offers ("this weekend"), so constrained
// requests can repeat and hit the cache.
func makeWindows(rng *rand.Rand, starts []time.Time) []window {
	sorted := append([]time.Time(nil), starts...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Before(sorted[b]) })
	n := len(sorted)
	lo, hi := int(math.Ceil(minSel*float64(n))), int(math.Floor(maxSel*float64(n)))
	out := make([]window, 0, numWindows)
	for k := 0; k < numWindows; k++ {
		// Shares evenly spaced over [minSel, maxSel], so every seed sends
		// the same selectivity mix; only the positions are drawn.
		cnt := int(math.Round((minSel + (maxSel-minSel)*float64(k)/(numWindows-1)) * float64(n)))
		cnt = min(max(cnt, lo), hi, n-1)
		var w window
		for try := 0; try < 100; try++ {
			i := rng.IntN(n - cnt)
			w = window{from: sorted[i].Truncate(time.Second), until: sorted[i+cnt].Truncate(time.Second)}
			w.sel = float64(countIn(sorted, w)) / float64(n)
			if w.sel >= minSel && w.sel <= maxSel {
				break // else equal start times stretched the window; move it
			}
		}
		out = append(out, w)
	}
	return out
}

func countIn(times []time.Time, w window) int {
	c := 0
	for _, t := range times {
		if w.allows(t) {
			c++
		}
	}
	return c
}

func (w window) allows(t time.Time) bool { return !t.Before(w.from) && t.Before(w.until) }

// drawer is one deterministic request stream of a mix. Streams with
// different ids are independent, so each closed-loop client and the
// open-loop schedule draw their own.
type drawer struct {
	m   *mix
	rng *rand.Rand
}

func (m *mix) stream(id uint64) *drawer {
	return &drawer{m: m, rng: rand.New(rand.NewPCG(m.seed, id))}
}

func (d *drawer) user() int32 {
	m := d.m
	if m.zipf == nil {
		return m.perm[d.rng.IntN(len(m.perm))]
	}
	r := sort.SearchFloat64s(m.zipf, d.rng.Float64())
	if r >= len(m.perm) {
		r = len(m.perm) - 1
	}
	return m.perm[r]
}

// next draws the workload's next read.
func (d *drawer) next() request {
	switch d.m.workload {
	case "mixed-zipf":
		// The app home-screen mix: ~55% events, ~25% partners, ~15%
		// date-windowed partners, ~5% feed.
		p := d.rng.Float64()
		u := d.user()
		switch {
		case p < 0.55:
			return request{kind: kEvents, user: u}
		case p < 0.80:
			return request{kind: kPartners, user: u}
		case p < 0.95:
			return request{kind: kConstrained, user: u, win: d.rng.IntN(len(d.m.windows))}
		default:
			return request{kind: kFeed, user: u}
		}
	case "ingest-live":
		return request{kind: kLive, user: d.user()}
	default:
		return request{kind: kPartners, user: d.user()}
	}
}

// ingest draws the next synthetic cold event: words sampled from a
// random test event's document (so they come from the dataset
// vocabulary), that event's venue, and a start time uniform over the
// test window.
func (d *drawer) ingest() ingestEvent {
	u := d.m.u
	e := d.rng.IntN(len(u.testWords))
	src := u.testWords[e]
	words := make([]string, 12)
	for i := range words {
		words[i] = src[d.rng.IntN(len(src))]
	}
	lo, hi := u.testStarts[0], u.testStarts[0]
	for _, t := range u.testStarts {
		if t.Before(lo) {
			lo = t
		}
		if t.After(hi) {
			hi = t
		}
	}
	off := time.Duration(d.rng.Int64N(int64(hi.Sub(lo)) + 1))
	return ingestEvent{Words: words, Venue: u.testVenues[e], Start: lo.Add(off).Truncate(time.Second).UTC()}
}

// arrival is one open-loop request and its due offset from the phase
// start.
type arrival struct {
	at  time.Duration
	req request
}

// schedule draws an open-loop schedule at rate requests per second over
// dur: arrivals at a fixed interval that never wait for earlier answers,
// each a freshly drawn read. Fixed spacing keeps arrival bursts out of
// the measured latency, so run-to-run spread comes from the server.
func (d *drawer) schedule(rate float64, dur time.Duration) []arrival {
	step := float64(time.Second) / rate
	var out []arrival
	for i := 0; ; i++ {
		at := time.Duration(float64(i) * step)
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, req: d.next()})
	}
}

// path renders the request's URL path and query.
func (m *mix) path(r request) string {
	u := strconv.Itoa(int(r.user))
	switch r.kind {
	case kEvents:
		return "/v1/events?user=" + u + "&n=" + strconv.Itoa(topN)
	case kConstrained:
		w := m.windows[r.win]
		return "/v1/partners?user=" + u + "&n=" + strconv.Itoa(topN) +
			"&from=" + url.QueryEscape(w.from.UTC().Format(time.RFC3339)) +
			"&until=" + url.QueryEscape(w.until.UTC().Format(time.RFC3339))
	case kFeed:
		return "/v1/feed?user=" + u + "&n=" + strconv.Itoa(topN) + "&m=" + strconv.Itoa(feedM)
	case kLive:
		return "/v1/partners/live?user=" + u + "&n=" + strconv.Itoa(topN)
	default:
		return "/v1/partners?user=" + u + "&n=" + strconv.Itoa(topN)
	}
}
