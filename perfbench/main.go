// Command perfbench is the repository's serving benchmark. It drives the
// real serve HTTP stack, in one process, over a deterministic
// Beijing-shape model, with three workloads:
//
//   - partners-uniform: uncached joint queries (GET /v1/partners) for
//     users drawn uniformly;
//   - mixed-zipf: an app home-screen mix (events, partners, date-windowed
//     partners, feed) at Zipf(1.1) user popularity;
//   - ingest-live: POST /v1/ingest at a fixed rate beside GET
//     /v1/partners/live reads, with an operator compacting periodically.
//
// An untraced run reports the end-to-end metrics; a traced run replays
// each answered request layer by layer and reports per-layer metrics.
// Every run checks a sample of answers against an exhaustive-scan
// oracle. See README.md in this directory; run it from the repository
// root with the arguments of the "command" in BENCHMARK.json, then
//
//	--workload partners-uniform --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is the result object.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ebsn"
	"ebsn/serve"
)

var workloads = []string{"partners-uniform", "mixed-zipf", "ingest-live"}

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	calib    bool

	fixtureSeed  uint64
	fixtureSteps int64
	server       serverSpec
	rates        map[string]float64
	limitsMs     map[string]float64
	ingestRate   float64
	compactEvery int

	root, work string
}

// serverSpec is the server under test's configuration: ebsn-serve's flag
// defaults unless the command line says otherwise.
type serverSpec struct {
	cfg     serve.Config
	threads int
	spec    string
}

func newFlagSet(name string) *flag.FlagSet { return flag.NewFlagSet(name, flag.ContinueOnError) }

func parseOptions(args []string) (*options, error) {
	o := &options{}
	fs := newFlagSet("perfbench")
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: user draws, windows, ingested events, arrival times")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run (open-loop then closed-loop phase)")
	traceN := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.calib, "calibrate", false, "print the unloaded median and capacity the rates and limits are derived from, then exit")
	fs.Uint64Var(&o.fixtureSeed, "fixture-seed", 11, "Beijing-preset generation and training seed of the fixture")
	fs.Int64Var(&o.fixtureSteps, "fixture-steps", 2_000_000, "fixture training step budget (single-threaded)")
	server := fs.String("server", "", "server config as key=value pairs (see serverDefaults)")
	rates := fs.String("rate", "", "open-loop read rate per workload, workload=req/s pairs")
	limits := fs.String("limit-ms", "", "latency limit per workload, workload=ms pairs")
	ingest := fs.String("ingest", "rate=25,compact-every=100", "ingest-live writer: rate=events/s,compact-every=N")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.trace = *traceN == 1
	if !slices.Contains(workloads, o.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	var err error
	if o.server, err = parseServer(*server); err != nil {
		return nil, err
	}
	if o.rates, err = parseNumbers(*rates); err != nil {
		return nil, fmt.Errorf("--rate: %w", err)
	}
	if o.limitsMs, err = parseNumbers(*limits); err != nil {
		return nil, fmt.Errorf("--limit-ms: %w", err)
	}
	ing, err := parseNumbers(*ingest)
	if err != nil {
		return nil, fmt.Errorf("--ingest: %w", err)
	}
	o.ingestRate, o.compactEvery = ing["rate"], int(ing["compact-every"])
	if !o.calib && (o.rates[o.workload] <= 0 || o.limitsMs[o.workload] <= 0) {
		return nil, fmt.Errorf("--rate and --limit-ms must name %s", o.workload)
	}
	if o.workload == "ingest-live" && o.ingestRate <= 0 {
		return nil, fmt.Errorf("--ingest rate must be positive")
	}
	if o.root, err = os.Getwd(); err != nil {
		return nil, err
	}
	o.work = filepath.Join(o.root, ".bench_build", "perfbench")
	return o, nil
}

// parseNumbers parses "a=1,b=2.5".
func parseNumbers(s string) (map[string]float64, error) {
	out := map[string]float64{}
	if s == "" {
		return out, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("%q is not key=value", kv)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k, err)
		}
		out[k] = f
	}
	return out, nil
}

// serverDefaults mirrors ebsn-serve's flag defaults. Storage and pruning
// are fixed: the oracle checks exact answers over the 5%-pruned space.
// The per-request access log stays off (the daemon writes it unless
// -quiet; it is not serving work).
const serverDefaults = "cache=4096,cache-ttl=60s,feed-ttl=30s,coalesce-window=200us,coalesce-batch=16," +
	"shards=1,storage=exact,prunek=5%,auto-compact=0,max-inflight=256,timeout=5s,threads=4"

func parseServer(s string) (serverSpec, error) {
	kv := map[string]string{}
	for i, src := range []string{serverDefaults, s} {
		if src == "" {
			continue
		}
		for _, p := range strings.Split(src, ",") {
			k, v, ok := strings.Cut(p, "=")
			if _, known := kv[k]; !ok || (i > 0 && !known) {
				return serverSpec{}, fmt.Errorf("--server: %q is not a known key=value", p)
			}
			kv[k] = v
		}
	}
	var sp serverSpec
	c := &sp.cfg
	var errs []error
	num := func(k string) int {
		n, err := strconv.Atoi(kv[k])
		errs = append(errs, err)
		return n
	}
	dur := func(k string) time.Duration {
		d, err := time.ParseDuration(kv[k])
		errs = append(errs, err)
		return d
	}
	c.CacheCapacity = num("cache")
	c.CacheTTL = dur("cache-ttl")
	c.FeedTTL = dur("feed-ttl")
	c.CoalesceWindow = dur("coalesce-window")
	c.CoalesceBatch = num("coalesce-batch")
	c.Shards = num("shards")
	c.AutoCompactEvents = num("auto-compact")
	c.MaxInFlight = num("max-inflight")
	c.RequestTimeout = dur("timeout")
	sp.threads = num("threads")
	if kv["storage"] != "exact" || kv["prunek"] != "5%" {
		errs = append(errs, fmt.Errorf("storage=%s, prunek=%s: the oracle needs storage=exact, prunek=5%%", kv["storage"], kv["prunek"]))
	}
	if err := errors.Join(errs...); err != nil {
		return sp, fmt.Errorf("--server: %w", err)
	}
	keys := make([]string, 0, len(kv))
	for k, v := range kv {
		keys = append(keys, k+"="+v)
	}
	sort.Strings(keys)
	sp.spec = strings.Join(keys, ",")
	return sp, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fixture" {
		if err := buildFixture(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench fixture:", err)
			os.Exit(1)
		}
		return
	}
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// served is one cold-started server under test.
type served struct {
	rec *ebsn.Recommender
	srv *serve.Server
}

// coldStart opens the fixture directory and warms a server over it —
// what a daemon does between exec and readiness, with no index artifact,
// so the index build is part of it. at holds the start, the end of
// ebsn.Open and the end of Warm.
func coldStart(o *options, dir string) (s served, at [3]time.Time, err error) {
	at[0] = time.Now()
	if s.rec, err = ebsn.Open(dir, ebsn.Config{Threads: o.server.threads}); err != nil {
		return s, at, err
	}
	at[1] = time.Now()
	s.srv = serve.New(s.rec, o.server.cfg)
	err = s.srv.Warm()
	at[2] = time.Now()
	return s, at, err
}

// cpuTimes is the machine-wide CPU time line of /proc/stat.
type cpuTimes []float64

func readCPU() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTimes
	for _, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t = append(t, v)
	}
	return t
}

// stealSince is the share of CPU time the hypervisor gave other guests
// since c0 — noise from outside the process that the report records.
func (c cpuTimes) stealSince(c0 cpuTimes) float64 {
	if len(c) < 8 || len(c0) < 8 {
		return 0
	}
	var total float64
	for i := range c {
		total += c[i] - c0[i]
	}
	if total == 0 {
		return 0
	}
	return (c[7] - c0[7]) / total
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
