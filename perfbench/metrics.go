package main

import "fmt"

// metricSpec documents one metric: its unit and — for a per-layer
// metric — the end-to-end metric and workload it should move and the
// workloads that measure it. A per-layer metric is reported as 0 by a
// traced run of a workload that does not measure it. BENCHMARK.json
// declares the same names and units, and which direction is better.
type metricSpec struct {
	name, unit string
	moves      string
	workloads  []string
}

var (
	all     = []string{"embed", "migrate", "query", "serve"}
	embed   = []string{"embed"}
	migrate = []string{"migrate"}
	query   = []string{"query"}
	serve   = []string{"serve"}
)

// endToEnd are the metrics of the untraced run, measured on every
// workload. What one operation and one pass are differs per workload;
// see README.md.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s"},
	{name: "success_share", unit: "share"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "work_s", unit: "s"},
	{name: "op_p50_ms", unit: "ms"},
	{name: "op_tail_ms", unit: "ms"},
}

// perLayer are the metrics of the traced run.
var perLayer = []metricSpec{
	{"dtd.parse_us", "us", "setup_s@embed, op_p50_ms@serve (pair-artifact misses)", []string{"embed", "serve"}},

	{"match.lexical_ms", "ms", "work_s@embed, op_tail_ms@serve", []string{"embed", "serve"}},

	{"search.random_ms", "ms", "work_s@embed", embed},
	{"search.quality_ms", "ms", "work_s@embed", embed},
	{"search.indepset_ms", "ms", "work_s@embed", embed},
	{"search.synthetic_ms", "ms", "work_s@embed", embed},
	{"search.restarts", "count", "work_s@embed", embed},
	{"search.steps", "count", "work_s@embed", embed},
	{"search.paths_enumerated", "count", "work_s@embed", embed},
	{"search.reject.lambda_empty", "count", "work_s, success_share@embed", embed},
	{"search.reject.path_empty", "count", "work_s, success_share@embed", embed},
	{"search.reject.prefix_free", "count", "work_s, success_share@embed", embed},
	{"search.reject.local_select", "count", "work_s, success_share@embed", embed},
	{"search.reject.conflict", "count", "work_s, success_share@embed", embed},
	{"search.path_cache_hit_ratio", "share", "work_s@embed", embed},
	{"search.localpaths_hit_ratio", "share", "work_s@embed", embed},
	{"search.found_per_restart", "share", "success_share@embed", embed},
	{"search.quality_mean", "qual", "success_share@embed (a miss scores 0)", embed},

	{"embedding.validate_us", "us", "work_s@embed, op_p50_ms@serve", []string{"embed", "serve"}},
	{"embedding.compile_stream_us", "us", "setup_s@migrate, op_tail_ms@serve", []string{"migrate", "serve"}},
	{"embedding.stream_ms", "ms", "work_s, peak_rss_mb@migrate; op_p50_ms@serve", []string{"migrate", "serve"}},
	{"embedding.stream_tokens", "count", "work_s@migrate", migrate},
	{"embedding.stream_fallbacks", "count", "work_s, peak_rss_mb@migrate", migrate},
	{"embedding.stream_peak_buffered_bytes", "B", "peak_rss_mb@migrate", migrate},
	{"embedding.stream_alloc_b_per_in_b", "B/B", "work_s, peak_rss_mb@migrate", migrate},
	{"embedding.invert_ms", "ms", "work_s@migrate", migrate},
	{"embedding.apply_ms", "ms", "setup_s@query", query},

	{"xmltree.tokenize_mb_per_s", "MB/s", "work_s@migrate", migrate},
	{"xmltree.tokenize_share", "share", "work_s@migrate (share of embedding.stream_ms)", migrate},
	{"xmltree.parse_mb_per_s", "MB/s", "work_s@migrate", migrate},
	{"xmltree.parse_share", "share", "work_s@migrate (share of the inverse leg)", migrate},
	{"xmltree.write_ms", "ms", "work_s@migrate", migrate},

	{"pipeline.overhead_ms", "ms", "work_s@migrate", migrate},
	{"pipeline.docs_failed", "count", "success_share@migrate", migrate},

	{"xpath.parse_us", "us", "op_p50_ms@query", query},

	{"translate.tr_us", "us", "op_p50_ms@query", query},
	{"translate.cache_hit_ratio", "share", "op_p50_ms@serve", serve},

	{"anfa.optimize_us", "us", "op_p50_ms@query", query},
	{"anfa.compile_us", "us", "op_p50_ms@query", query},
	{"anfa.size_before", "count", "work_s@query", query},
	{"anfa.size", "count", "work_s@query", query},
	{"anfa.shrink", "share", "work_s@query", query},
	{"anfa.run_ms", "ms", "work_s@query", query},
	{"anfa.run_ns_per_node", "ns", "work_s@query", query},

	{"server.embed_p50_ms", "ms", "op_p50_ms, op_tail_ms@serve", serve},
	{"server.translate_p50_ms", "ms", "op_p50_ms, op_tail_ms@serve", serve},
	{"server.migrate_p50_ms", "ms", "op_p50_ms, op_tail_ms@serve", serve},
	{"server.invert_p50_ms", "ms", "op_p50_ms, op_tail_ms@serve", serve},
	{"server.handler_share", "share", "op_p50_ms@serve", serve},
	{"server.artifact_hit_ratio", "share", "op_p50_ms, op_tail_ms@serve", serve},
	{"server.body_kb_per_req", "kB", "work_s@serve", serve},
	{"server.shed", "count", "success_share@serve", serve},

	{"runtime.alloc_mb", "MB", "work_s@every workload", all},
	{"runtime.gc_cpu_share", "share", "work_s@every workload", all},
	{"trace.overhead_share", "share", "none: traced pass wall / untraced pass wall - 1", all},
	{"trace.unattributed_share", "share", "none: traced wall no span covers", all},
}

// metricUnits maps every metric name to its unit.
var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if _, dup := m[s.name]; dup {
			panic("duplicate metric " + s.name)
		}
		m[s.name] = s.unit
	}
	return m
}()

// layerSpec returns the per-layer metric named m.
func layerSpec(m string) metricSpec {
	for _, s := range perLayer {
		if s.name == m {
			return s
		}
	}
	return metricSpec{}
}

// measures reports whether workload name measures per-layer metric m.
func measures(m, name string) bool {
	for _, w := range layerSpec(m).workloads {
		if w == name {
			return true
		}
	}
	return false
}

// fillLayers checks that a traced run produced every per-layer metric
// its workload measures and reports the others as 0.
func fillLayers(name string, out map[string]float64) error {
	for _, s := range perLayer {
		measured := measures(s.name, name)
		_, have := out[s.name]
		switch {
		case measured && !have:
			return fmt.Errorf("traced run did not measure %s", s.name)
		case !measured && have:
			return fmt.Errorf("traced run measured %s, which is not declared for %s", s.name, name)
		case !measured:
			out[s.name] = 0
		}
	}
	return nil
}
