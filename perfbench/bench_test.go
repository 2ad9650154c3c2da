package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"ebsn"
	"ebsn/serve"
)

// tinyRec trains the tiny city once for every test: 300 users, a few
// seconds.
var tinyRec = sync.OnceValues(func() (*ebsn.Recommender, error) {
	return ebsn.New(ebsn.Config{City: ebsn.CityTiny, Seed: 7, Threads: 1, TrainSteps: 200_000})
})

func tiny(t *testing.T) *ebsn.Recommender {
	t.Helper()
	rec, err := tinyRec()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestDrawsReproduce(t *testing.T) {
	u := newUniverse(tiny(t))
	for _, w := range workloads {
		a, b := newMix(w, 42, u), newMix(w, 42, u)
		if !reflect.DeepEqual(a.perm, b.perm) || !reflect.DeepEqual(a.windows, b.windows) {
			t.Fatalf("%s: same seed, different permutation or windows", w)
		}
		sa, sb := a.stream(streamOpen).schedule(200, 2*time.Second), b.stream(streamOpen).schedule(200, 2*time.Second)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("%s: same seed, different schedules", w)
		}
		da, db := a.stream(streamIngest), b.stream(streamIngest)
		for i := 0; i < 50; i++ {
			if x, y := da.ingest(), db.ingest(); !reflect.DeepEqual(x, y) {
				t.Fatalf("%s: ingest %d differs: %+v vs %+v", w, i, x, y)
			}
		}
		if c := newMix(w, 43, u); reflect.DeepEqual(c.stream(streamOpen).schedule(200, 2*time.Second), sa) {
			t.Fatalf("%s: seeds 42 and 43 draw the same schedule", w)
		}
	}
}

func TestWindowsReproduceAndCoverTheirShare(t *testing.T) {
	u := newUniverse(tiny(t))
	m := newMix("mixed-zipf", 9, u)
	if len(m.windows) != numWindows {
		t.Fatalf("%d windows, want %d", len(m.windows), numWindows)
	}
	for i, w := range m.windows {
		got := float64(countIn(u.testStarts, w)) / float64(len(u.testStarts))
		if got != w.sel || got < minSel || got > maxSel {
			t.Errorf("window %d covers %.3f of the test events, recorded %.3f, want [%.2f, %.2f]", i, got, w.sel, minSel, maxSel)
		}
		if w.from.Nanosecond() != 0 || w.until.Nanosecond() != 0 {
			t.Errorf("window %d is finer than the wire's second resolution", i)
		}
	}
	if !reflect.DeepEqual(m.windows, newMix("mixed-zipf", 9, u).windows) {
		t.Fatal("windows differ for the same seed")
	}
}

func TestZipfDrawsFavorFewUsers(t *testing.T) {
	u := newUniverse(tiny(t))
	d := newMix("mixed-zipf", 5, u).stream(streamOpen)
	counts := map[int32]int{}
	for i := 0; i < 10000; i++ {
		counts[d.next().user]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	// Zipf(1.1) over 300 users gives the first rank ~20% of draws; the
	// uniform draw would give 0.3%.
	if top < 1000 {
		t.Fatalf("most popular user drew %d of 10000, want a Zipf head", top)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	vals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i)
		}
		return v
	}
	if _, err := percentile(vals(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it; want a refusal")
	}
	got, err := percentile(vals(1000), 0.99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if _, err := percentile(vals(15), 0.5); err == nil {
		t.Fatal("p50 of 15 samples has 7 beyond it; want a refusal")
	}
}

// corrupting serves the real handler but answers 503 for one user and
// alters one score in another user's answer.
func corrupting(h http.Handler, unavailable, corrupt int32) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("user") {
		case strconv.Itoa(int(unavailable)):
			http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
			return
		case strconv.Itoa(int(corrupt)):
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			pair := body["pairs"].([]any)[0].(map[string]any)
			pair["score"] = pair["score"].(float64) + 0.5
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(body)
			return
		}
		h.ServeHTTP(w, r)
	})
}

func TestFailuresCountTowardFailFrac(t *testing.T) {
	rec := tiny(t)
	sp := newServerSpec(t)
	srv := serve.New(rec, sp.cfg)
	if err := srv.Warm(); err != nil {
		t.Fatal(err)
	}
	const unavailable, corrupt = 11, 12
	hs := httptest.NewServer(corrupting(srv, unavailable, corrupt))
	defer hs.Close()

	r := newRunner(hs.URL, newMix("partners-uniform", 1, newUniverse(rec)), 2, time.Minute)
	defer r.reads.close()
	for k := range r.keep.stride {
		r.keep.stride[k], r.keep.cap[k] = 1, 100
	}
	var outs []outcome
	for u := int32(10); u < 20; u++ {
		outs = append(outs, r.read(request{kind: kPartners, user: u}, time.Time{}, false))
	}
	rep := &report{}
	if err := checkAnswers(rep, r, rec, newSpace(rec)); err != nil {
		t.Fatal(err)
	}
	tally(rep, r, outs)
	if rep.Checks.Checked != 9 || rep.Checks.Wrong != 1 {
		t.Fatalf("checked %d, wrong %d; want 9 answers checked and the corrupted one wrong (%v)",
			rep.Checks.Checked, rep.Checks.Wrong, rep.Checks.Errors)
	}
	if rep.Attempted != 10 || rep.Failed != 2 || rep.FailFrac != 0.2 {
		t.Fatalf("attempted %d, failed %d, fail_frac %v; want 10, 2 (the 503 and the wrong answer), 0.2",
			rep.Attempted, rep.Failed, rep.FailFrac)
	}
}

func TestOracleAcceptsLiveAnswers(t *testing.T) {
	rec := tiny(t)
	sp := newServerSpec(t)
	srv := serve.New(rec, sp.cfg)
	if err := srv.Warm(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	m := newMix("ingest-live", 3, newUniverse(rec))
	r := newRunner(hs.URL, m, 2, time.Minute)
	defer r.reads.close()
	defer r.writes.close()
	defer r.ops.close()
	for k := range r.keep.stride {
		r.keep.stride[k], r.keep.cap[k] = 1, 100
	}
	d := m.stream(streamIngest)
	var outs []outcome
	for i := 0; i < 12; i++ {
		r.ingest(d.ingest(), time.Now())
		if i == 6 {
			r.compact()
		}
		outs = append(outs, r.read(request{kind: kLive, user: int32(i)}, time.Time{}, false))
	}
	rep := &report{}
	if err := checkAnswers(rep, r, rec, newSpace(rec)); err != nil {
		t.Fatal(err)
	}
	tally(rep, r, outs)
	if rep.Checks.Checked != 12 || rep.Checks.Wrong != 0 || rep.Failed != 0 {
		t.Fatalf("checked %d, wrong %d, failed %d: %v", rep.Checks.Checked, rep.Checks.Wrong, rep.Failed, rep.Checks.Errors)
	}
}

func newServerSpec(t *testing.T) serverSpec {
	t.Helper()
	sp, err := parseServer("")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}
