package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"ebsn"
	"ebsn/internal/par"
)

// report is everything a run knows besides its metrics: the
// environment, the full fixture and server configuration, and the
// properties each workload was chosen for, as measured.
type report struct {
	Workload     string      `json:"workload"`
	Seed         uint64      `json:"seed"`
	Seconds      float64     `json:"seconds"`
	Traced       bool        `json:"traced"`
	Env          envInfo     `json:"env"`
	Fixture      fixtureMeta `json:"fixture"`
	Server       string      `json:"server"`
	Connections  string      `json:"connections"`
	RateRPS      float64     `json:"open_loop_rate_rps"`
	LimitMs      float64     `json:"latency_limit_ms"`
	IngestRate   float64     `json:"ingest_rate_eps,omitempty"`
	CompactEvery int         `json:"compact_every,omitempty"`
	SetupS       []float64   `json:"setup_s"`

	Phases []phaseInfo `json:"phases"`
	Valid  bool        `json:"valid"`
	Notes  []string    `json:"notes,omitempty"`

	CacheHitFrac   float64   `json:"cache_hit_frac"`
	GCCycles       uint32    `json:"gc_cycles_measured"`
	StealFrac      float64   `json:"cpu_steal_frac_measured"`
	WindowSel      []float64 `json:"window_selectivity,omitempty"`
	PendingAtRead  *dist     `json:"pending_events_at_read,omitempty"`
	DeltaPairsRead *dist     `json:"delta_pairs_at_read,omitempty"`
	DeltaOf        string    `json:"delta_at_read_of,omitempty"`

	// Tails, reported but not gated: on a shared 2-vCPU box their
	// run-to-run spread exceeds any bound a regression gate could use.
	P99Ms           float64   `json:"p99_ms,omitempty"`
	P99Of           string    `json:"p99_ms_of,omitempty"`
	IngestP99Ms     float64   `json:"ingest_p99_ms,omitempty"`
	IngestP99Of     string    `json:"ingest_p99_ms_of,omitempty"`
	IngestMs        []float64 `json:"ingest_p50_p90_p99_max_ms,omitempty"`
	CapacityWindows []float64 `json:"capacity_windows_qps,omitempty"`
	CompactMs       *dist     `json:"compact_ms,omitempty"`

	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	FailFrac  float64    `json:"fail_frac"`
	Checks    checkInfo  `json:"checks"`
	Layers    []layerOut `json:"layers,omitempty"`
	Claims    []string   `json:"layer_predictions,omitempty"`
}

type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	TreeHash   string `json:"tree_source_sha256"` // identifies the sources where there is no git commit
	SourceHash string `json:"fixture_source_sha256"`
}

type phaseInfo struct {
	Name        string    `json:"name"`
	Loop        string    `json:"loop"`
	Clients     int       `json:"clients"`
	Seconds     float64   `json:"seconds"`
	Reads       int       `json:"reads"`
	Non200      int       `json:"non_200"`
	GenLateP99  float64   `json:"generator_late_p99_ms,omitempty"`
	GenLateMax  float64   `json:"generator_late_max_ms,omitempty"`
	P50Ms       float64   `json:"p50_ms,omitempty"`
	QuantilesMs []float64 `json:"p10_p25_p50_p75_p90_ms,omitempty"`
	WithinLimit int       `json:"within_limit,omitempty"`
}

type dist struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

func newDist(v []float64) *dist {
	d := &dist{N: len(v), Mean: mean(v)}
	for _, x := range v {
		d.Max = max(d.Max, x)
	}
	return d
}

type checkInfo struct {
	Checked int            `json:"checked"`
	Wrong   int            `json:"wrong"`
	ByKind  map[string]int `json:"checked_by_kind"`
	Errors  []string       `json:"errors,omitempty"`
}

var started = time.Now()

// logf reports progress on stderr, stamped with the run's elapsed time.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func latencies(outs []outcome) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = ms(o.lat)
	}
	return v
}

func newUniverse(rec *ebsn.Recommender) *universe {
	d := rec.Dataset()
	u := &universe{users: d.NumUsers}
	for _, x := range rec.Split().TestEvents {
		e := d.Events[x]
		u.testStarts = append(u.testStarts, e.Start)
		u.testVenues = append(u.testVenues, e.Venue)
		u.testWords = append(u.testWords, e.Words)
	}
	return u
}

// Phase shares of --seconds. An untraced run spends openShare of it in
// the open loop and the rest in the closed loop; a traced run splits it
// into an untraced baseline and a traced open loop.
const (
	openShare  = 0.5
	capWindows = 4   // capacity_qps is the median rate over this many closed-loop windows
	warmReads  = 400 // untimed reads before the measured phases
	coldStarts = 2   // setup_s is their median; the last one serves

	// extraProcs is how many scheduler slots (GOMAXPROCS) the process gets
	// beyond nproc. With exactly nproc, busy handlers hold every slot and
	// a due read waits up to a 10 ms preemption slice before the
	// in-process generator can send it.
	extraProcs = 1
	sweepReads = 40
)

func run(o *options) error {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	dir, meta, err := ensureFixture(o)
	if err != nil {
		return err
	}
	tree, err := treeHash(o.root)
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc + extraProcs)
	rep := &report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Env: envInfo{NumCPU: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: os.Getenv("PERFBENCH_COMMIT"), TreeHash: tree, SourceHash: meta.SourceHash},
		Fixture: meta, Server: o.server.spec,
		Connections: fmt.Sprintf("%d read (nproc), 1 ingest, 1 operator; in-process loopback", nproc),
		RateRPS:     o.rates[o.workload], LimitMs: o.limitsMs[o.workload], Valid: true,
	}
	if o.workload == "ingest-live" {
		rep.IngestRate, rep.CompactEvery = o.ingestRate, o.compactEvery
	}

	// Cold starts: each one builds everything from the directory; only
	// the last is kept and served.
	var cur served
	var starts [][3]time.Time
	n := coldStarts
	if o.calib {
		n = 1
	}
	for i := 0; i < n; i++ {
		cur = served{}
		runtime.GC()
		debug.FreeOSMemory()
		s, at, err := coldStart(o, dir)
		if err != nil {
			return fmt.Errorf("cold start: %w", err)
		}
		cur = s
		starts = append(starts, at)
		rep.SetupS = append(rep.SetupS, at[2].Sub(at[0]).Seconds())
		logf("cold start %d: %.2fs", i+1, at[2].Sub(at[0]).Seconds())
	}
	rec, srv := cur.rec, cur.srv
	pruneK := max(1, len(rec.Split().TestEvents)/20)

	var tr *tracer
	if o.trace {
		tr = newTracer(rec)
		for _, at := range starts {
			tr.span(0, 0, "ebsn.open", at[0], at[1])
			tr.span(0, 0, "serve.warm", at[1], at[2])
		}
		if err := tr.buildLayers(pruneK, o.server.cfg.Shards, o.server.threads); err != nil {
			return err
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	m := newMix(o.workload, o.seed, newUniverse(rec))
	r := newRunner(base, m, nproc, time.Duration(o.limitsMs[o.workload]*float64(time.Millisecond)))
	r.tr = tr
	if o.workload == "ingest-live" {
		r.compactEvery = o.compactEvery
	}
	stop := func() error {
		r.reads.close()
		r.writes.close()
		r.ops.close()
		cancel()
		return <-serveErr
	}
	if o.calib {
		calibrate(o, r, nproc)
		return stop()
	}

	// Warm connections, caches and the coalescer untimed.
	if tr != nil {
		tr.off.Store(true)
	}
	r.warmUp(nproc, warmReads)
	r.keep.list = nil
	logf("warmed up; measuring")

	// The open loop covers openShare of --seconds and the closed loop the
	// rest. A traced run splits the same time into an untraced baseline
	// and the traced open loop.
	rate := o.rates[o.workload]
	total := time.Duration(o.seconds * float64(time.Second))
	openDur := time.Duration(openShare * float64(total))
	var first, second []arrival
	if tr == nil {
		first = m.stream(streamOpen).schedule(rate, openDur)
	} else {
		first = m.stream(streamBaseline).schedule(rate, total-openDur)
		second = m.stream(streamOpen).schedule(rate, openDur)
	}
	span := func(a []arrival) time.Duration {
		if len(a) == 0 {
			return 0
		}
		return a[len(a)-1].at + time.Millisecond
	}
	firstDur, secondDur := span(first), span(second)
	closedDur := total - openDur
	measuredDur := firstDur + closedDur
	if tr != nil {
		measuredDur = firstDur + secondDur
	}

	// Each measured phase starts on a freshly collected heap, so where the
	// next GC cycle lands does not differ from run to run.
	runtime.GC()
	start := time.Now().Add(20 * time.Millisecond)
	hits0, miss0 := srv.Cache().Stats()
	snap0 := srv.Metrics().Snapshot()
	cpu0 := readCPU()
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	feedDone := make(chan struct{})
	if o.workload == "ingest-live" {
		go func() {
			defer close(feedDone)
			r.feed(o.ingestRate, start, start.Add(measuredDur))
		}()
	} else {
		close(feedDone)
	}

	var measured []outcome // every read of the measured phases
	var openOuts, closedOuts []outcome
	var closedStart time.Time
	if tr == nil {
		r.keep.reset()
		outs, late := r.openLoop(first, start, nproc)
		openOuts = outs
		rep.Phases = append(rep.Phases, openPhase("open", outs, late, nproc, firstDur))
		r.keep.reset()
		if o.workload != "ingest-live" {
			runtime.GC() // not under a live feed, whose latency it would charge
		}
		closedStart = time.Now()
		closedOuts = r.closedLoop(nproc, closedStart.Add(closedDur), streamClosed)
		measured = append(append(measured, outs...), closedOuts...)
	} else {
		// Untraced baseline first, then the traced open loop at the same
		// rate: the p50 difference is the tracing overhead.
		baseOuts, late := r.openLoop(first, start, nproc)
		rep.Phases = append(rep.Phases, openPhase("baseline", baseOuts, late, nproc, firstDur))
		tr.off.Store(false)
		hits0, miss0 = srv.Cache().Stats()
		snap0 = srv.Metrics().Snapshot()
		r.keep.reset()
		outs, late := r.openLoop(second, start.Add(firstDur), nproc)
		openOuts = outs
		rep.Phases = append(rep.Phases, openPhase("traced", outs, late, nproc, secondDur))
		measured = append(append(measured, baseOuts...), outs...)
	}
	<-feedDone
	logf("measured phases done")
	hits1, miss1 := srv.Cache().Stats()
	snap1 := srv.Metrics().Snapshot()
	runtime.ReadMemStats(&gc1)
	rep.GCCycles = gc1.NumGC - gc0.NumGC
	rep.StealFrac = readCPU().stealSince(cpu0)
	if dh, dm := hits1-hits0, miss1-miss0; dh+dm > 0 {
		rep.CacheHitFrac = float64(dh) / float64(dh+dm)
	}
	if o.workload == "mixed-zipf" {
		for _, w := range m.windows {
			rep.WindowSel = append(rep.WindowSel, w.sel)
		}
	}
	var rssMiB float64
	if tr == nil {
		if rssMiB, err = peakRSSMiB(); err != nil {
			return err
		}
	}
	// The generator shares the server's cores: a due read can wait for a
	// scheduler slice (Go preempts every 10ms) while handlers hold both.
	// That delay is charged to the read's latency. Beyond the latency
	// limit or two slices, whichever is larger, the generator itself fell
	// behind, and the run is invalid rather than slow.
	behind := max(rep.LimitMs, 20)
	for _, p := range rep.Phases {
		if p.GenLateP99 > behind {
			rep.Valid = false
			rep.Notes = append(rep.Notes, fmt.Sprintf("invalid: the %s generator ran %.2f ms late at p99, beyond %.0f ms", p.Name, p.GenLateP99, behind))
		}
	}

	if o.workload == "ingest-live" && tr == nil {
		var pend, pairs []float64
		for _, oc := range openOuts {
			pend = append(pend, float64(oc.pending))
			pairs = append(pairs, float64(oc.pending*pruneK))
		}
		rep.PendingAtRead, rep.DeltaPairsRead = newDist(pend), newDist(pairs)
		rep.DeltaOf = "client view of each open-loop read: acknowledged ingests no completed compaction had folded; pairs = that x pruneK"
	}
	if tr != nil {
		measured = append(measured, sweep(r, o.workload)...)
		tr.flush(r)
		logf("replayed the traced reads")
		if err := tr.timeSetupLayers(dir, pruneK, o.server.threads); err != nil {
			return err
		}
	}
	if err := stop(); err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", err)
	}

	logf("server stopped; checking answers")
	sp, err := loadSpace(filepath.Join(dir, "oracle.bin"))
	if err != nil {
		return err
	}
	if err := checkAnswers(rep, r, rec, sp); err != nil {
		return err
	}
	logf("checked %d answers, %d wrong", rep.Checks.Checked, rep.Checks.Wrong)
	tally(rep, r, measured)

	res := resultLine{
		Correct:   rep.Valid && rep.Checks.Wrong == 0 && rep.Checks.Checked > 0,
		Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{},
	}
	if tr == nil {
		endToEnd(res.Metrics, rep, r, openOuts, closedOuts, closedStart, closedDur, rssMiB)
	} else {
		layerMetrics(res.Metrics, rep, tr, r, snap0, snap1, openOuts, rep.Phases[0].P50Ms)
	}
	return emit(o, rep, res, tr)
}

func openPhase(name string, outs []outcome, late []float64, conns int, d time.Duration) phaseInfo {
	p := phaseInfo{Name: name, Loop: "open", Clients: conns, Seconds: d.Seconds(), Reads: len(outs)}
	for _, o := range outs {
		if o.status != http.StatusOK {
			p.Non200++
		}
	}
	lat := latencies(outs)
	p.P50Ms = median(lat)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		p.QuantilesMs = append(p.QuantilesMs, lat[int(q*float64(len(lat)-1))])
	}
	if len(late) > 0 {
		for _, v := range late {
			p.GenLateMax = max(p.GenLateMax, v)
		}
		p.GenLateP99, _ = tail(append([]float64(nil), late...))
	}
	return p
}

// endToEnd fills the untraced run's metrics.
func endToEnd(out map[string]metric, rep *report, r *runner, open, closed []outcome, cs time.Time, closedDur time.Duration, rss float64) {
	lat := latencies(open)
	rep.P99Ms, rep.P99Of = tail(append([]float64(nil), lat...))
	if len(r.ingestLat) > 0 {
		rep.IngestP99Ms, rep.IngestP99Of = tail(append([]float64(nil), r.ingestLat...))
	}
	// Capacity: answers within the limit per second, in each of
	// capWindows equal windows of the closed loop; the median window is
	// reported, so one stall moves it by at most a window. Kept answers
	// the oracle rejected are taken off every window alike.
	wrong := 0
	for _, s := range r.keep.list {
		if s.capacity && s.wrong {
			wrong++
		}
	}
	win := closedDur / capWindows
	counts := make([]float64, capWindows)
	ok := 0
	for _, o := range closed {
		if w := int(o.done.Sub(cs) / win); o.status == http.StatusOK && o.lat <= r.limit && w < capWindows {
			counts[w]++
			ok++
		}
	}
	rates := make([]float64, capWindows)
	for w, c := range counts {
		rates[w] = (c - float64(wrong)/capWindows) / win.Seconds()
	}
	rep.CapacityWindows = append([]float64(nil), rates...)
	rep.Phases = append(rep.Phases, phaseInfo{Name: "closed", Loop: "closed", Clients: runtime.NumCPU(),
		Seconds: closedDur.Seconds(), Reads: len(closed), WithinLimit: ok - wrong, P50Ms: median(latencies(closed))})
	out["setup_s"] = metric{median(append([]float64(nil), rep.SetupS...)), "s"}
	out["p50_ms"] = metric{median(lat), "ms"}
	out["capacity_qps"] = metric{median(rates), "req/s"}
	out["success_frac"] = metric{1 - rep.FailFrac, "ratio"}
	out["rss_mib"] = metric{rss, "MiB"}
}

// emit prints the report line and the result line, and saves both (and
// a traced run's spans) under the work directory.
func emit(o *options, rep *report, res resultLine, tr *tracer) error {
	name := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	if err := os.MkdirAll(filepath.Join(o.work, "results"), 0o755); err != nil {
		return err
	}
	if tr != nil {
		if err := tr.write(filepath.Join(o.work, "results", name+".spans.jsonl")); err != nil {
			return err
		}
	}
	rb, err := json.Marshal(map[string]any{"perfbench_report": rep})
	if err != nil {
		return err
	}
	lb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.work, "results", name+".json"),
		[]byte(string(rb)+"\n"+string(lb)+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Println(string(rb))
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("  %-28s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Println(string(lb))
	return nil
}

// tally counts every request of the run and every failure: a read or
// write that got no 200, and a kept answer the oracle rejected.
func tally(rep *report, r *runner, reads []outcome) {
	rep.Attempted = len(reads) + r.writes0
	rep.Failed = r.writeFails + rep.Checks.Wrong
	for _, oc := range reads {
		if oc.status != http.StatusOK {
			rep.Failed++
		}
	}
	rep.FailFrac = float64(rep.Failed) / float64(max(1, rep.Attempted))
	if n := len(r.ingestLat); n > 0 {
		v := append([]float64(nil), r.ingestLat...)
		sort.Float64s(v)
		rep.IngestMs = []float64{v[n/2], v[n*9/10], v[n*99/100], v[n-1]}
	}
	if len(r.compactLat) > 0 {
		rep.CompactMs = newDist(r.compactLat)
	}
}

// checkAnswers runs the oracle over every kept answer.
func checkAnswers(rep *report, r *runner, rec *ebsn.Recommender, sp *space) error {
	or, err := newOracle(rec, sp)
	if err != nil {
		return err
	}
	// Only the ingested events a kept read could have seen are folded:
	// the unloaded probe's writes come after every read.
	evs := r.ing.snapshot()
	seen := 0
	for _, s := range r.keep.list {
		seen = max(seen, s.liveHi)
	}
	evs = evs[:min(seen, len(evs))]
	workers := runtime.GOMAXPROCS(0)
	if len(evs) > 0 {
		snap := rec.Model().Snapshot()
		or.live = make([]liveEvent, len(evs))
		errs := make([]error, len(evs))
		par.For(len(evs), workers, func(i int) {
			vec, err := foldIn(rec, snap, evs[i])
			if errs[i] = err; err == nil {
				or.live[i] = or.newLive(vec)
			}
		})
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	errs := make([]error, len(r.keep.list))
	par.For(len(r.keep.list), workers, func(i int) { errs[i] = or.check(r.mix, r.keep.list[i]) })
	rep.Checks.ByKind = map[string]int{}
	for i, s := range r.keep.list {
		rep.Checks.Checked++
		rep.Checks.ByKind[s.req.kind.String()]++
		if err := errs[i]; err != nil {
			s.wrong = true
			rep.Checks.Wrong++
			if len(rep.Checks.Errors) < 5 {
				rep.Checks.Errors = append(rep.Checks.Errors, fmt.Sprintf("%s user %d: %v", s.req.kind, s.req.user, err))
			}
		}
	}
	return nil
}

// calibrate prints what the workload's rate and limit are derived from:
// the unloaded median (one client) and the closed-loop capacity (nproc
// clients) with no latency limit. The rule: rate ≈ capacity/4, limit ≈
// 10 × the unloaded median.
func calibrate(o *options, r *runner, nproc int) {
	r.limit = time.Hour
	r.warmUp(nproc, warmReads)
	feedDone := make(chan struct{})
	t0 := time.Now()
	if o.workload == "ingest-live" {
		go func() { defer close(feedDone); r.feed(o.ingestRate, t0, t0.Add(7*time.Second)) }()
	} else {
		close(feedDone)
	}
	one := r.closedLoop(1, t0.Add(3*time.Second), streamCalib)
	cs := time.Now()
	all := r.closedLoop(nproc, cs.Add(4*time.Second), streamCalib+1)
	capacity := float64(len(all)) / time.Since(cs).Seconds()
	<-feedDone
	p50 := median(latencies(one))
	fmt.Printf("{\"workload\":%q,\"unloaded_p50_ms\":%.3f,\"capacity_qps\":%.1f,\"rate_rps\":%.0f,\"limit_ms\":%.1f}\n",
		o.workload, p50, capacity, capacity/4, 10*p50)
}

// treeHash digests the non-test Go sources and go.mod files of the whole
// tree under root, skipping dot directories such as the build directory.
func treeHash(root string) (string, error) {
	var pats []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		pats = append(pats, filepath.Join(rel, "go.mod"), filepath.Join(rel, "*.go"))
		return err
	})
	if err != nil {
		return "", fmt.Errorf("hash source tree: %w", err)
	}
	return sourceHash(root, pats)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
