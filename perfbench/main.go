// Command perfbench is the repository's end-to-end benchmark. It runs
// one of four seeded workloads — embed, migrate, query, serve — against
// the public functions of the dtd, match, search, embedding, xmltree,
// xpath, translate, anfa, pipeline and server packages, checks every
// output outside the timed region, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) as the last line
// of standard output:
//
//	perfbench --workload embed --seed 1 --seconds 10 --trace 0
//	perfbench --workload migrate --seed 1 --seconds 10 --trace 1
//	perfbench --steady 5 --workload query --seed 1 --seconds 10
//
// The steady mode re-runs the workload in k child processes with seeds
// seed..seed+k-1 and prints each metric's median, quartiles and spread.
// Metric names, units and the end-to-end metric each per-layer metric
// should move are listed in metrics.go and README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	outDir  string
}

// runner is one seeded workload. Setup builds the inputs (the
// set-up cost users pay once); pass runs the fixed operation set once,
// recording each operation and each piece of its measured work (the
// work_s metric) into rec; check verifies the outputs of the last pass
// outside any timed region.
type runner interface {
	setup(cfg runConfig, tl *lane) error
	pass(rec *recorder, tl *lane) error
	check() (wrong int, err error)
	// opsLabel names one operation in reports (search, document, ...).
	opsLabel() string
	// report adds the workload's own named results to the report
	// printed ahead of the metrics line.
	report(r *report)
	// layers computes the per-layer metrics from the traced pass's
	// spans, the set-up spans (probe's tracer) and the extra calls it
	// makes on probe, which only the traced run makes.
	layers(pass *traceResult, probe *lane, out map[string]float64) error
	close()
}

var workloads = map[string]func() runner{
	"embed":   func() runner { return &embedWorkload{} },
	"migrate": func() runner { return &migrateWorkload{} },
	"query":   func() runner { return &queryWorkload{} },
	"serve":   func() runner { return &serveWorkload{} },
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: embed, migrate, query or serve")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		outDir  = flag.String("out", ".bench_out", "directory for span files, layer tables and result files")
		steady  = flag.Int("steady", 0, "run the workload this many times with consecutive seeds and print the spread of every metric")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition whose metric names the output must match")
	)
	flag.Parse()
	newW, ok := workloads[*name]
	if !ok {
		fatalf("unknown --workload %q (want embed, migrate, query or serve)", *name)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	names, err := loadSpec(*spec)
	if err != nil {
		fatalf("%v", err)
	}
	if *steady > 0 {
		if err := steadyReport(os.Stdout, *name, *seed, *seconds, *trace, *steady); err != nil {
			fatalf("%v", err)
		}
		return
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, outDir: *outDir}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	var res *result
	if *trace == 1 {
		res, err = runTraced(newW, *name, cfg)
	} else {
		res, err = runTimed(newW, *name, cfg)
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	want := names.endToEnd
	if *trace == 1 {
		want = names.perLayer
	}
	if err := res.matches(want); err != nil {
		fatalf("%s: %v", *name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// matches reports an error unless the result carries exactly the
// metric names the benchmark definition declares.
func (r *result) matches(want []string) error {
	var missing, extra []string
	seen := map[string]bool{}
	for _, n := range want {
		seen[n] = true
		if _, ok := r.Metrics[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range r.Metrics {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics disagree with the benchmark definition: missing %v, undeclared %v", missing, extra)
	}
	return nil
}

// specNames are the metric names declared in BENCHMARK.json.
type specNames struct {
	endToEnd, perLayer []string
}

func loadSpec(path string) (specNames, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return specNames{}, fmt.Errorf("read benchmark definition: %w", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return specNames{}, fmt.Errorf("parse %s: %w", path, err)
	}
	var out specNames
	for _, m := range doc.EndToEnd {
		out.endToEnd = append(out.endToEnd, m.Name)
		if u, ok := metricUnits[m.Name]; !ok || u != m.Unit {
			return specNames{}, fmt.Errorf("%s: end-to-end metric %s (%s) is not the one this benchmark measures", path, m.Name, m.Unit)
		}
	}
	for _, m := range doc.PerLayer {
		out.perLayer = append(out.perLayer, m.Name)
		if u, ok := metricUnits[m.Name]; !ok || u != m.Unit {
			return specNames{}, fmt.Errorf("%s: per-layer metric %s (%s) is not the one this benchmark measures", path, m.Name, m.Unit)
		}
	}
	if len(out.endToEnd) == 0 || len(out.perLayer) == 0 {
		return specNames{}, errors.New(path + ": no metrics declared")
	}
	return out, nil
}

// report collects the human-readable lines printed before the metrics
// line and written to the results file.
type report struct {
	lines []string
	named map[string]metricValue
}

func (r *report) add(name string, v float64, unit string) {
	if r.named == nil {
		r.named = map[string]metricValue{}
	}
	r.named[name] = metricValue{Value: v, Unit: unit}
	r.lines = append(r.lines, fmt.Sprintf("%-28s %14.6g %s", name, v, unit))
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) write(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
}

// save writes the report and the result as one JSON file per run.
func (r *report) save(dir, name string, res *result) error {
	doc := map[string]any{"report": r.named, "result": res, "lines": r.lines}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
}

// runTimed is the untraced run: set-up several times (set-up time is
// reported as the median), then whole passes of the fixed operation
// set for the configured number of seconds, then the correctness gate.
// The timing metrics are each operation's and each piece of work's
// fastest time over the passes (see recorder).
func runTimed(newW func() runner, name string, cfg runConfig) (*result, error) {
	const setups = 3
	var w runner
	var setupS []float64
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		w = newW()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(cfg, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.close()
	runtime.GC()

	rec := &recorder{}
	var passS []float64
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for {
		// Every pass starts from a collected heap, so where the
		// collector ran in the previous pass does not carry over.
		runtime.GC()
		t0 := time.Now()
		if err := w.pass(rec, nil); err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(passS)+1, err)
		}
		d := time.Since(t0)
		passS = append(passS, d.Seconds())
		rec.endPass()
		// A pass is started only when it is expected to end inside
		// the budget, so every pass is whole, and there are at least
		// two: the first pass of a process runs cold (on embed 5–10%
		// slower), and the timing metrics take each operation at its
		// fastest.
		if len(passS) >= 2 && time.Since(start)+d > budget {
			break
		}
	}
	timed := time.Since(start)
	// Peak memory of set-up and the timed passes, before the checker
	// builds its own reference outputs.
	rss := peakRSSMB()

	wrong, err := w.check()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}

	rep := &report{}
	perPass := rec.perPass
	rep.note("workload %s seed %d: %d pass(es) in %.2fs, %d %s(s) per pass", name, cfg.seed, len(passS), timed.Seconds(), perPass, w.opsLabel())
	rep.note("work per pass (s): %s", formatList(rec.passWork))
	tailP := tailPercentile[name]
	if samplesBeyond(perPass, tailP) < 10 {
		return nil, fmt.Errorf("%d %s latencies per pass leave fewer than 10 beyond p%g", perPass, w.opsLabel(), tailP)
	}
	res := &result{
		Correct:   wrong == 0,
		Attempted: rec.attempted,
		Failed:    rec.errored + wrong,
		Metrics: map[string]metricValue{
			"setup_s":       {median(setupS), "s"},
			"success_share": {rec.successShare(), "share"},
			"peak_rss_mb":   {rss, "MB"},
			"work_s":        {rec.workS(), "s"},
			"op_p50_ms":     {rec.opQuantile(0.50), "ms"},
			"op_tail_ms":    {rec.opQuantile(tailP / 100), "ms"},
		},
	}
	for _, k := range []string{"setup_s", "success_share", "peak_rss_mb", "work_s", "op_p50_ms", "op_tail_ms"} {
		rep.add(k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	rep.note("op_p50_ms and op_tail_ms (p%g) are quantiles over %d %ss of each one's fastest latency in %d passes; work_s sums the fastest time of each piece of work; setup_s is the median of %d set-ups", tailP, perPass, w.opsLabel(), len(passS), setups)
	rep.note("outcomes: %d attempted, %d succeeded, %d misses, %d errors, %d wrong outputs", rec.attempted, rec.succeeded, rec.missed, rec.errored, wrong)
	w.report(rep)
	rep.write(os.Stdout)
	if err := rep.save(cfg.outDir, fmt.Sprintf("%s-seed%d-result.json", name, cfg.seed), res); err != nil {
		return nil, err
	}
	return res, nil
}

// runTraced is the traced run: one set-up, then untraced and traced
// passes alternately (at least two of each, the fastest of each kind
// kept), the extra probe calls, and the per-layer metrics.
func runTraced(newW func() runner, name string, cfg runConfig) (*result, error) {
	w := newW()
	defer w.close()
	runtime.GC()
	tr := newTracer()
	setupLane := tr.lane("setup")
	if err := w.setup(cfg, setupLane); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	rec := &recorder{}
	var plain, traced *traceResult
	// At least two rounds, more while they fit in half the run length,
	// so short passes still give a steady overhead figure.
	budget := time.Duration(cfg.seconds * float64(time.Second) / 2)
	start := time.Now()
	for round := 0; round < 2 || time.Since(start)+2*plain.wall < budget; round++ {
		runtime.GC()
		rt := startRuntimeSample()
		t0 := time.Now()
		if err := w.pass(rec, nil); err != nil {
			return nil, fmt.Errorf("untraced pass: %w", err)
		}
		p := &traceResult{wall: time.Since(t0), runtime: rt.delta()}
		if plain == nil || p.wall < plain.wall {
			plain = p
		}
		rec.endPass()

		runtime.GC()
		passTr := newTracer()
		tl := passTr.lane("pass")
		t0 = time.Now()
		if err := w.pass(rec, tl); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		t := &traceResult{wall: time.Since(t0), tracer: passTr}
		if traced == nil || t.wall < traced.wall {
			traced = t
		}
		rec.endPass()
	}
	wrong, err := w.check()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}

	probe := tr.lane("probe")
	out := map[string]float64{}
	if err := w.layers(traced, probe, out); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	acct := traced.account()
	out["trace.overhead_share"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
	out["trace.unattributed_share"] = acct.unattributedShare()
	out["runtime.alloc_mb"] = plain.runtime.allocBytes / 1e6
	out["runtime.gc_cpu_share"] = plain.runtime.gcCPUShare()
	if err := fillLayers(name, out); err != nil {
		return nil, err
	}
	setupAcct := accountLanes(setupLane, probe)

	rep := &report{}
	rep.note("workload %s seed %d traced: untraced pass %.3fs, traced pass %.3fs", name, cfg.seed, plain.wall.Seconds(), traced.wall.Seconds())
	rep.note("layer self time of the traced pass (wall x lanes = %.3fs):", acct.total.Seconds())
	rep.lines = append(rep.lines, acct.table()...)
	rep.note("set-up and probe calls:")
	rep.lines = append(rep.lines, setupAcct.table()...)
	res := &result{Correct: wrong == 0, Attempted: rec.attempted, Failed: rec.errored + wrong, Metrics: map[string]metricValue{}}
	for _, k := range sortedKeys(out) {
		res.Metrics[k] = metricValue{out[k], metricUnits[k]}
		if measures(k, name) {
			rep.add(k, out[k], metricUnits[k])
			rep.lines[len(rep.lines)-1] += "  -> " + layerSpec(k).moves
		}
	}
	rep.write(os.Stdout)

	base := fmt.Sprintf("%s-seed%d", name, cfg.seed)
	if err := traced.tracer.writeChrome(filepath.Join(cfg.outDir, base+"-spans.json"), tr); err != nil {
		return nil, err
	}
	table := strings.Join(append(append(acct.table(), "set-up and probe calls:"), setupAcct.table()...), "\n") + "\n"
	if err := os.WriteFile(filepath.Join(cfg.outDir, base+"-layers.txt"), []byte(table), 0o644); err != nil {
		return nil, err
	}
	if err := rep.save(cfg.outDir, base+"-trace.json", res); err != nil {
		return nil, err
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
