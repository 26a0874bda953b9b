package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/workload"
)

// The embed workload: embedding search and nothing else. Every corpus
// pair under Random, QualityOrdered and IndepSet at the default budget
// of 40 restarts, plus synthetic 20%-noise pairs of about 80 and 160
// types under Random. It carries the known misses (IndepSet, and
// Random on xmark) and does no XML I/O.
//
// The Random searches on the corpus pairs use fixed seeds, not seeds
// drawn from the workload seed: a Random search that finds an
// embedding stops at the first successful restart, which comes after
// anywhere from 0 to 40 restarts (0.01 s to 5 s on mondial), so seeds
// drawn per run made the pass time swing by 40% between workload
// seeds. The synthetic pairs and their searches come from a fixed seed
// list too: the search latency percentiles fall among them, and with a
// new set of pairs per workload seed the p75 spread 39% over five
// seeds, against 13% with a fixed set.
// The workload seed varies the QualityOrdered and IndepSet seeds.
const (
	embedRestarts = 40
	qualitySeeds  = 8 // per pair
	indepSetSeeds = 4 // per pair
)

// randomSeeds are the fixed seeds of the corpus Random searches.
var randomSeeds = []int64{1}

// syntheticSeed is the fixed seed the synthetic pairs and their search
// seeds derive from.
const syntheticSeed = 1

// syntheticPairs is how many synthetic pairs of each size a pass
// searches. With the QualityOrdered searches below them and the rest
// above, the median search latency falls in the middle of the small
// synthetic searches whatever the seed.
var syntheticPairs = []struct{ size, n int }{{80, 120}, {160, 12}}

type searchOp struct {
	cell     string // random, quality, indepset or synthetic
	pair     string
	h        search.Heuristic
	seed     int64
	src, tgt *dtd.DTD
	att      *embedding.SimMatrix
	res      *search.Result // of the last pass
}

type embedWorkload struct {
	ops []*searchOp
	// reg is the metrics registry of the last pass.
	reg *obs.Registry
}

func (w *embedWorkload) opsLabel() string { return "search" }

func (w *embedWorkload) setup(cfg runConfig, tl *lane) error {
	pairs, err := loadPairs(tl)
	if err != nil {
		return err
	}
	for _, cell := range []struct {
		name  string
		h     search.Heuristic
		seeds func(pair string) []int64
	}{
		{"random", search.Random, func(string) []int64 { return randomSeeds }},
		{"indepset", search.IndepSet, func(pair string) []int64 { return seedList(cfg.seed, pair+"/indepset", indepSetSeeds) }},
		{"quality", search.QualityOrdered, func(pair string) []int64 { return seedList(cfg.seed, pair+"/quality", qualitySeeds) }},
	} {
		for _, p := range pairs {
			for _, s := range cell.seeds(p.name) {
				w.ops = append(w.ops, &searchOp{cell: cell.name, pair: p.name, h: cell.h, seed: s, src: p.src, tgt: p.tgt, att: p.att})
			}
		}
	}
	for _, sp := range syntheticPairs {
		size := sp.size
		for i := 0; i < sp.n; i++ {
			name := fmt.Sprintf("synthetic%d", size)
			r := rand.New(rand.NewSource(subSeed(syntheticSeed, name, i)))
			sp := tl.start("workload.SyntheticDTD", name)
			base, err := workload.SyntheticDTD(r, size)
			tl.stop(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			sp = tl.start("workload.Noise", name)
			nc := workload.Noise(base, workload.NoiseLevel(0.2), r)
			tl.stop(sp)
			sp = tl.start("match.Synthetic", name)
			att := match.Synthetic(base, nc.DTD, nc.Truth, match.SyntheticOptions{Accuracy: 1, Ambiguity: 2}, r)
			tl.stop(sp)
			w.ops = append(w.ops, &searchOp{cell: "synthetic", pair: name, h: search.Random,
				seed: subSeed(syntheticSeed, name+"/search", i), src: base, tgt: nc.DTD, att: att})
		}
	}
	return nil
}

// pass runs every search once, serially; its work is the time of each
// search. Each search starts from a collected heap, as it would
// in an xse-embed process of its own (the collection is outside the
// search's timing): the corpus searches allocate hundreds of
// megabytes, and where the collector happened to run in such a burst
// otherwise moved the peak RSS by 15% from run to run. The traced pass
// also turns on the explainability ledger, whose rejection counts only
// it reports.
func (w *embedWorkload) pass(rec *recorder, tl *lane) error {
	w.reg = obs.NewRegistry()
	ctx := context.Background()
	for i, op := range w.ops {
		tl.beginOp()
		sp := tl.start("runtime.GC", "")
		runtime.GC()
		tl.stop(sp)
		t0 := time.Now()
		sp = tl.start("search.FindCtx", op.cell)
		res, err := search.FindCtx(ctx, op.src, op.tgt, op.att, search.Options{
			Heuristic: op.h, Seed: op.seed, MaxRestarts: embedRestarts, Obs: w.reg, Explain: tl != nil,
		})
		tl.stop(sp)
		d := time.Since(t0)
		rec.work(fmt.Sprintf("search/%d", i), d)
		op.res = res
		switch {
		case err != nil:
			rec.op(i, d, opFailed)
		case res.Embedding == nil:
			rec.op(i, d, opMiss)
		default:
			rec.op(i, d, opOK)
		}
	}
	return nil
}

// check validates every embedding the last pass found against its
// similarity matrix.
func (w *embedWorkload) check() (int, error) {
	wrong := 0
	for _, op := range w.ops {
		if op.res == nil || op.res.Embedding == nil {
			continue
		}
		if err := op.res.Embedding.Validate(op.att); err != nil {
			fmt.Printf("wrong output: %s %s seed %d: found embedding fails Validate: %v\n", op.pair, op.cell, op.seed, err)
			wrong++
		}
	}
	return wrong, nil
}

func (w *embedWorkload) report(r *report) {
	r.add("embed_s", w.sum(""), "s")
	r.add("quality_mean", w.qualityMean(), "qual")
	type cell struct {
		found, tried int
		d            time.Duration
		each         []float64
	}
	cells := map[string]*cell{}
	for _, op := range w.ops {
		k := op.pair + "/" + op.cell
		if cells[k] == nil {
			cells[k] = &cell{}
		}
		c := cells[k]
		c.tried++
		if op.res != nil {
			c.d += op.res.Elapsed
			c.each = append(c.each, ms(op.res.Elapsed))
			if op.res.Embedding != nil {
				c.found++
			}
		}
	}
	for _, k := range sortedKeys(cells) {
		c := cells[k]
		r.note("  %-24s found %d/%d in %8.1f ms, median %.2f ms", k, c.found, c.tried, ms(c.d), median(c.each))
	}
}

// sum is the last pass's search time in seconds, for one cell or all.
func (w *embedWorkload) sum(cell string) float64 {
	var d time.Duration
	for _, op := range w.ops {
		if op.res != nil && (cell == "" || op.cell == cell) {
			d += op.res.Elapsed
		}
	}
	return d.Seconds()
}

func (w *embedWorkload) qualityMean() float64 {
	q := 0.0
	for _, op := range w.ops {
		if op.res != nil {
			q += op.res.Quality
		}
	}
	return q / float64(len(w.ops))
}

func (w *embedWorkload) layers(pass *traceResult, probe *lane, out map[string]float64) error {
	var restarts, steps, paths, found, attempts int
	var rej search.Rejections
	for _, op := range w.ops {
		res := op.res
		if res == nil {
			continue
		}
		restarts += res.Restarts
		steps += res.Steps
		paths += res.PathsEnumerated
		attempts += res.Restarts
		if res.Embedding != nil {
			found++
			attempts++
		}
		rej.LambdaEmpty += res.Rejections.LambdaEmpty
		rej.PathEmpty += res.Rejections.PathEmpty
		rej.PrefixFree += res.Rejections.PrefixFree
		rej.LocalSelect += res.Rejections.LocalSelect
		rej.Conflict += res.Rejections.Conflict
	}
	for _, cell := range []string{"random", "quality", "indepset", "synthetic"} {
		d, _ := pass.total("search.FindCtx", cell)
		out["search."+cell+"_ms"] = ms(d)
	}
	out["search.restarts"] = float64(restarts)
	out["search.steps"] = float64(steps)
	out["search.paths_enumerated"] = float64(paths)
	out["search.reject.lambda_empty"] = float64(rej.LambdaEmpty)
	out["search.reject.path_empty"] = float64(rej.PathEmpty)
	out["search.reject.prefix_free"] = float64(rej.PrefixFree)
	out["search.reject.local_select"] = float64(rej.LocalSelect)
	out["search.reject.conflict"] = float64(rej.Conflict)
	out["search.path_cache_hit_ratio"] = hitRatio(w.reg, "xse_search_path_cache_hits_total", "xse_search_path_cache_misses_total")
	out["search.localpaths_hit_ratio"] = hitRatio(w.reg, "xse_search_localpaths_hits_total", "xse_search_localpaths_misses_total")
	out["search.found_per_restart"] = ratio(float64(found), float64(attempts))
	out["search.quality_mean"] = w.qualityMean()

	// Set-up calls: the corpus DTD parses and lexical matrices.
	setup := probe.tr
	out["dtd.parse_us"] = meanOf(setup, "dtd.Parse") * 1e3
	out["match.lexical_ms"] = meanOf(setup, "match.Lexical")

	// Probe: validate every found embedding, the check the gate makes.
	for _, op := range w.ops {
		if op.res == nil || op.res.Embedding == nil {
			continue
		}
		sp := probe.start("embedding.Validate", op.cell)
		err := op.res.Embedding.Validate(op.att)
		probe.stop(sp)
		if err != nil {
			return fmt.Errorf("%s %s: %w", op.pair, op.cell, err)
		}
	}
	out["embedding.validate_us"] = meanOf(setup, "embedding.Validate") * 1e3
	return nil
}

func seedList(seed int64, name string, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = subSeed(seed, name, i)
	}
	return out
}

// hitRatio reads hits / (hits + misses) from a registry's counters.
func hitRatio(reg *obs.Registry, hits, misses string) float64 {
	var h, m float64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case hits:
			h += float64(s.Counter)
		case misses:
			m += float64(s.Counter)
		}
	}
	return ratio(h, h+m)
}

func (w *embedWorkload) close() {}
