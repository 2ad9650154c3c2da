package main

import (
	"fmt"
	"strings"
	"time"

	"ebsn/serve"
)

// layerMetric is one per-layer metric, with the end-to-end metric it
// should move and the workload it should move it on — the prediction a
// later change is judged against.
type layerMetric struct {
	name, unit, better, moves, on string
}

var layerTable = []layerMetric{
	{"serve.cache_hit_frac", "ratio", "higher", "p50_ms, capacity_qps", "mixed-zipf (about 0 on partners-uniform)"},
	{"serve.self_us", "us", "lower", "p50_ms", "mixed-zipf"},
	{"serve.coalesced_frac", "ratio", "higher", "capacity_qps", "partners-uniform"},
	{"serve.batch_mean", "count", "higher", "capacity_qps", "partners-uniform"},
	{"serve.shed_frac", "ratio", "lower", "success_frac", "all"},
	{"serve.resp_bytes", "bytes", "lower", "p50_ms", "mixed-zipf"},
	{"serve.warm_s", "s", "lower", "setup_s", "all"},
	{"ebsn.open_s", "s", "lower", "setup_s", "all"},
	{"ebsnet.import_s", "s", "lower", "setup_s", "all"},
	{"core.restore_s", "s", "lower", "setup_s", "all"},
	{"ta.build_candidates_s", "s", "lower", "setup_s", "all"},
	{"engine.build_s", "s", "lower", "setup_s", "all"},
	{"ebsn.partners_us", "us", "lower", "p50_ms", "partners-uniform"},
	{"ebsn.partners_p99_us", "us", "lower", "p99_ms", "partners-uniform"},
	{"engine.prepass_us", "us", "lower", "p50_ms", "partners-uniform"},
	{"engine.shard_wall_us", "us", "lower", "p50_ms", "partners-uniform"},
	{"engine.merge_us", "us", "lower", "p50_ms", "partners-uniform"},
	{"ta.walk_us", "us", "lower", "p50_ms", "partners-uniform"},
	{"ta.walk_self_us", "us", "lower", "p50_ms", "partners-uniform"},
	{"vecmath.partner_dot_us", "us", "lower", "p50_ms", "partners-uniform"},
	{"ta.access_frac", "ratio", "lower", "p50_ms", "partners-uniform"},
	{"ta.sorted_accesses", "count", "lower", "p50_ms", "partners-uniform"},
	{"vecmath.flops_per_query", "flop", "lower", "p50_ms", "partners-uniform"},
	{"vecmath.bytes_per_query", "bytes", "lower", "p50_ms", "partners-uniform"},
	{"ebsn.events_us", "us", "lower", "p50_ms", "mixed-zipf"},
	{"ebsn.constrained_us", "us", "lower", "p99_ms", "mixed-zipf"},
	{"workload.compile_us", "us", "lower", "p99_ms", "mixed-zipf"},
	{"workload.selectivity", "ratio", "lower", "p99_ms", "mixed-zipf"},
	{"ebsn.feed_us", "us", "lower", "p99_ms", "mixed-zipf"},
	{"workload.join_us", "us", "lower", "p99_ms", "mixed-zipf"},
	{"ebsn.live_us", "us", "lower", "p50_ms, p99_ms", "ingest-live"},
	{"ebsn.pending_events", "count", "lower", "p50_ms, p99_ms", "ingest-live"},
	{"ta.delta_pairs", "count", "lower", "p50_ms, p99_ms", "ingest-live"},
	{"ebsn.live_us_per_kpair", "us", "lower", "p99_ms", "ingest-live"},
	{"core.foldin_us", "us", "lower", "ingest_p99_ms", "ingest-live"},
	{"ebsn.compact_ms", "ms", "lower", "p99_ms", "ingest-live"},
	{"trace.overhead_p50_ms", "ms", "lower", "none (tracing cost)", "all"},
}

// layerOut is a per-layer metric as reported, with where its value came
// from: the workload's own traffic, or the sweep that covers call kinds
// the workload does not send.
type layerOut struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Moves  string  `json:"moves"`
	On     string  `json:"on"`
	Source string  `json:"source"`
}

// sweep covers, after the traced traffic, the call kinds this workload
// does not send, so every per-layer metric is measured on every
// workload: a few seeded reads of each missing kind, and for workloads
// without a live feed a short ingest-read sequence and one compaction.
func sweep(r *runner, workload string) []outcome {
	sent := map[kind]bool{}
	switch workload {
	case "partners-uniform":
		sent[kPartners] = true
	case "mixed-zipf":
		sent[kEvents], sent[kPartners], sent[kConstrained], sent[kFeed] = true, true, true, true
	case "ingest-live":
		sent[kLive] = true
	}
	r.keep.reset()
	d := r.mix.stream(streamSweep)
	var outs []outcome
	for _, k := range []kind{kEvents, kPartners, kConstrained, kFeed} {
		if sent[k] {
			continue
		}
		for i := 0; i < sweepReads; i++ {
			req := request{kind: k, user: d.user(), win: d.rng.IntN(len(r.mix.windows))}
			outs = append(outs, r.read(req, time.Time{}, false))
		}
	}
	if !sent[kLive] {
		for i := 0; i < sweepReads; i++ {
			r.ingest(d.ingest(), time.Now())
			outs = append(outs, r.read(request{kind: kLive, user: d.user()}, time.Time{}, false))
		}
		r.compact()
	}
	return outs
}

// layerMetrics fills the traced run's metrics from its spans and the
// server's public counters over the traced phase.
func layerMetrics(out map[string]metric, rep *report, tr *tracer, r *runner, s0, s1 serve.MetricsSnapshot, traced []outcome, baseP50 float64) {
	st := tr.stats()
	val := map[string]float64{}
	src := map[string]string{}
	med := func(span string) float64 { return median(append([]float64(nil), st.us[span]...)) }
	attr := func(span, a string) []float64 { return st.attrs[span][a] }

	hit := rep.CacheHitFrac
	val["serve.cache_hit_frac"] = hit
	// The serve layer's own time per read: the round trip minus the
	// facade work the server actually did, which is the replayed facade
	// call on a cache miss and nothing on a hit.
	facade := map[int64]float64{}
	for _, s := range st.spans {
		switch s.Name {
		case "ebsn.events", "ebsn.partners", "ebsn.constrained", "ebsn.feed", "ebsn.live":
			facade[s.Parent] += s.us()
		}
	}
	var self, bytes []float64
	for _, s := range st.spans {
		if strings.HasPrefix(s.Name, "http.") {
			bytes = append(bytes, s.Attrs["bytes"])
			if f, ok := facade[s.ID]; ok {
				self = append(self, s.us()-(1-hit)*f)
			}
		}
	}
	val["serve.self_us"] = mean(self)
	val["serve.resp_bytes"] = mean(bytes)
	if dc := s1.Batch.CoalescedRequests - s0.Batch.CoalescedRequests; dc > 0 {
		dd := s1.Batch.Dispatches - s0.Batch.Dispatches
		val["serve.coalesced_frac"] = 1 - float64(dd)/float64(dc)
		val["serve.batch_mean"] = float64(dc) / float64(dd)
	}
	val["serve.shed_frac"] = float64(s1.Shed-s0.Shed) / float64(max(1, len(traced)))
	val["serve.warm_s"] = med("serve.warm") / 1e6
	val["ebsn.open_s"] = med("ebsn.open") / 1e6
	val["ebsnet.import_s"] = med("ebsnet.import") / 1e6
	val["core.restore_s"] = med("core.restore") / 1e6
	val["ta.build_candidates_s"] = med("ta.build_candidates") / 1e6
	val["engine.build_s"] = med("engine.build") / 1e6

	val["ebsn.partners_us"] = med("ebsn.partners")
	p99, how := tail(append([]float64(nil), st.us["ebsn.partners"]...))
	val["ebsn.partners_p99_us"] = p99
	src["ebsn.partners_p99_us"] = how
	val["engine.prepass_us"] = median(attr("ebsn.partners", "prepass_us"))
	val["engine.shard_wall_us"] = median(attr("ebsn.partners", "shard_wall_us"))
	val["engine.merge_us"] = median(attr("ebsn.partners", "merge_us"))
	val["ta.walk_us"] = med("ta.walk")
	val["ta.walk_self_us"] = st.selfUS("ta.walk", "vecmath.partner_dot")
	val["vecmath.partner_dot_us"] = med("vecmath.partner_dot")
	val["ta.access_frac"] = mean(attr("ebsn.partners", "access_frac"))
	val["ta.sorted_accesses"] = mean(attr("ebsn.partners", "sorted"))
	val["vecmath.flops_per_query"] = mean(attr("ebsn.partners", "flops"))
	val["vecmath.bytes_per_query"] = mean(attr("ebsn.partners", "bytes"))
	src["vecmath.flops_per_query"] = "computed: 2K(|X|+|U|) for the two affinity passes + 2 per scored pair"
	src["vecmath.bytes_per_query"] = "computed: 4K(|X|+|U|) of streamed rows + 16 per scored pair + 8 per bound popped"

	val["ebsn.events_us"] = med("ebsn.events")
	val["ebsn.constrained_us"] = med("ebsn.constrained")
	val["workload.compile_us"] = med("workload.compile")
	val["workload.selectivity"] = mean(attr("workload.compile", "selectivity"))
	val["ebsn.feed_us"] = med("ebsn.feed")
	val["workload.join_us"] = med("workload.join")
	val["ebsn.live_us"] = med("ebsn.live")
	pend, pairs := attr("ebsn.live", "pending_events"), attr("ebsn.live", "delta_pairs")
	val["ebsn.pending_events"] = mean(pend)
	val["ta.delta_pairs"] = mean(pairs)
	kp := make([]float64, len(pairs))
	for i, p := range pairs {
		kp[i] = p / 1000
	}
	b, corr := slope(kp, st.us["ebsn.live"])
	val["ebsn.live_us_per_kpair"] = b
	src["ebsn.live_us_per_kpair"] = fmt.Sprintf("least-squares slope over %d reads, r=%.2f", len(kp), corr)
	val["core.foldin_us"] = med("core.foldin")
	val["ebsn.compact_ms"] = med("ebsn.compact") / 1e3
	val["trace.overhead_p50_ms"] = median(latencies(traced)) - baseP50
	rep.PendingAtRead, rep.DeltaPairsRead = newDist(pend), newDist(pairs)
	rep.DeltaOf = "PendingLiveEvents / PendingLivePairs at each replayed live read"

	own := map[string][]string{
		"partners-uniform": {"ebsn.partners", "engine.", "ta.walk", "vecmath.", "ta.access", "ta.sorted"},
		"mixed-zipf":       {"ebsn.events", "ebsn.partners", "engine.", "ta.walk", "vecmath.", "ta.access", "ta.sorted", "ebsn.constrained", "workload.", "ebsn.feed"},
		"ingest-live":      {"ebsn.live", "ebsn.pending", "ta.delta", "core.foldin", "ebsn.compact"},
	}[rep.Workload]
	for _, lm := range layerTable {
		source := "traffic"
		switch {
		case lm.unit == "s":
			source = "setup"
		case strings.HasPrefix(lm.name, "serve.") || strings.HasPrefix(lm.name, "trace."):
		default:
			source = "sweep"
			for _, p := range own {
				if strings.HasPrefix(lm.name, p) {
					source = "traffic"
				}
			}
		}
		if s, ok := src[lm.name]; ok {
			source += "; " + s
		}
		out[lm.name] = metric{val[lm.name], lm.unit}
		rep.Layers = append(rep.Layers, layerOut{lm.name, val[lm.name], lm.unit, lm.moves, lm.on, source})
	}

	// The predictions the workloads were chosen on, checked.
	if rep.Workload == "partners-uniform" {
		share := (val["vecmath.partner_dot_us"] + val["ta.walk_self_us"]) / val["ebsn.partners_us"]
		rep.Claims = append(rep.Claims, fmt.Sprintf("partner dot + walk self = %.0f + %.0f us = %.0f%% of ebsn.partners_us %.0f us (predicted: most)",
			val["vecmath.partner_dot_us"], val["ta.walk_self_us"], 100*share, val["ebsn.partners_us"]))
	}
	rep.Claims = append(rep.Claims, fmt.Sprintf("serve.cache_hit_frac = %.3f on %s (predicted lower on partners-uniform than on mixed-zipf)", hit, rep.Workload))
	rep.Claims = append(rep.Claims, fmt.Sprintf("ebsn.live_us rises %.1f us per 1000 delta pairs (r=%.2f, %d reads; predicted: rises)", b, corr, len(kp)))
}
