package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/anfa"
	"repro/internal/embedding"
	"repro/internal/translate"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The query workload: each pair's curated queries plus generated
// translatable ones go from text to a compiled program cold, once per
// pass (xpath.Parse, Tr with the default-on optimizer, anfa.Compile),
// and every program then runs over migrated documents of two sizes.
// Compile time and run time are the two sides of the ANFA optimizer's
// trade-off; the two document sizes let a change that shifts cost
// between them show.
//
// The query set is fixed: the generated queries come from their own
// seed, not the workload seed, which varies the documents. Their run
// cost spans two orders of magnitude, so a new set per workload seed
// moved the run leg by 20% between seeds.
const (
	queryGenSeed   = 1
	randomQueries  = 36 // per pair, on top of the curated ones
	translateReps  = 3  // cold translations of each query per pass
	evalSmallNodes = 1_000
	evalLargeNodes = 5_000
	// Evaluation cost follows the node count, so the documents are
	// budgeted in nodes; it also follows which element types a
	// generated document happens to be rich in, so the budget is
	// spread over many documents (a few ~10k-node ones moved the run
	// leg by 20% between seeds).
	evalLargeNodesMax = 30_000 // at most, per pair
	evalPairNodes     = 60_000 // source nodes of documents per pair
)

type queryDoc struct {
	src *xmltree.Tree
	mig *embedding.Result
}

type queryOp struct {
	text string
	q    xpath.Expr
	auto *anfa.Automaton
	prog *anfa.Program
}

type queryPair struct {
	*schemaPair
	trl  *translate.Translator
	ops  []*queryOp
	docs []*queryDoc
}

type queryWorkload struct {
	pairs []*queryPair
}

func (w *queryWorkload) opsLabel() string { return "query" }

func (w *queryWorkload) setup(cfg runConfig, tl *lane) error {
	pairs, err := loadPairs(tl)
	if err != nil {
		return err
	}
	if err := embedPairs(tl, pairs); err != nil {
		return err
	}
	ctx := context.Background()
	for _, p := range pairs {
		sp := tl.start("translate.New", p.name)
		trl, err := translate.New(p.emb)
		tl.stop(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		qp := &queryPair{schemaPair: p, trl: trl}
		texts := append([]string(nil), p.queryTexts...)
		r := rand.New(rand.NewSource(subSeed(queryGenSeed, p.name+"/queries", 0)))
		for i := 0; i < randomQueries; i++ {
			sp := tl.start("xpath.RandomQuery", p.name)
			q := xpath.RandomQuery(r, p.src, xpath.GenOptions{TranslatableOnly: true, MaxDepth: 3})
			tl.stop(sp)
			texts = append(texts, xpath.String(q))
		}
		for _, t := range texts {
			qp.ops = append(qp.ops, &queryOp{text: t})
		}
		trees, _, err := docSet(tl, p.src, cfg.seed, p.name+"/eval", unitNodes, evalSmallNodes, evalLargeNodes, evalLargeNodesMax, evalPairNodes)
		if err != nil {
			return err
		}
		for _, t := range trees {
			sp := tl.start("embedding.ApplyCtx", p.name)
			mig, err := p.emb.ApplyCtx(ctx, t)
			tl.stop(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			qp.docs = append(qp.docs, &queryDoc{src: t, mig: mig})
		}
		w.pairs = append(w.pairs, qp)
	}
	return nil
}

// translateOp takes one query from text to a runnable program.
func translateOp(ctx context.Context, tl *lane, trl *translate.Translator, op *queryOp) error {
	sp := tl.start("xpath.Parse", "")
	q, err := xpath.Parse(op.text)
	tl.stop(sp)
	if err != nil {
		return err
	}
	sp = tl.start("translate.TranslateCtx", "")
	auto, err := trl.TranslateCtx(ctx, q)
	tl.stop(sp)
	if err != nil {
		return err
	}
	sp = tl.start("anfa.Compile", "")
	prog := anfa.Compile(auto)
	tl.stop(sp)
	op.q, op.auto, op.prog = q, auto, prog
	return nil
}

// pass translates every query cold, then runs every program on every
// migrated document of its pair. The work_s of this workload is the
// run leg, recorded by query.
func (w *queryWorkload) pass(rec *recorder, tl *lane) error {
	ctx := context.Background()
	k := 0 // operation index: translations in pass order
	for rep := 0; rep < translateReps; rep++ {
		for _, p := range w.pairs {
			for _, op := range p.ops {
				k++
				tl.beginOp()
				t0 := time.Now()
				err := translateOp(ctx, tl, p.trl, op)
				d := time.Since(t0)
				if err != nil {
					fmt.Printf("query %q: %v\n", op.text, err)
					op.prog = nil
					rec.op(k, d, opFailed)
					continue
				}
				rec.op(k, d, opOK)
			}
		}
	}
	tl.beginOp()
	for _, p := range w.pairs {
		for i, op := range p.ops {
			if op.prog == nil {
				continue
			}
			t0 := time.Now()
			for _, d := range p.docs {
				sp := tl.start("anfa.Program.Run", "")
				op.prog.Run(d.mig.Tree.Root)
				tl.stop(sp)
			}
			rec.work(fmt.Sprintf("run/%s/%d", p.name, i), time.Since(t0))
		}
	}
	return nil
}

// check: the translated program's answers on σd(T), mapped back by
// idM, equal the interpreted source query's answers on T.
func (w *queryWorkload) check() (int, error) {
	wrong := 0
	for _, p := range w.pairs {
		for _, op := range p.ops {
			if op.prog == nil {
				continue
			}
			for i, d := range p.docs {
				if !preserved(op, d) {
					fmt.Printf("wrong output: %s doc %d: %q is not preserved by its translation\n", p.name, i, op.text)
					wrong++
				}
			}
		}
	}
	return wrong, nil
}

func preserved(op *queryOp, d *queryDoc) bool {
	want := map[xmltree.NodeID]bool{}
	for _, n := range xpath.EvalInterpreted(op.q, d.src.Root) {
		want[n.ID] = true
	}
	got := map[xmltree.NodeID]bool{}
	for _, n := range op.prog.Run(d.mig.Tree.Root) {
		id, ok := d.mig.IDM[n.ID]
		if !ok {
			return false
		}
		got[id] = true
	}
	if len(got) != len(want) {
		return false
	}
	for id := range want {
		if !got[id] {
			return false
		}
	}
	return true
}

func (w *queryWorkload) size() (queries, size int) {
	for _, p := range w.pairs {
		for _, op := range p.ops {
			if op.auto != nil {
				queries++
				size += op.auto.Size()
			}
		}
	}
	return queries, size
}

func (w *queryWorkload) report(r *report) {
	n, size := w.size()
	r.add("anfa_size", float64(size), "count")
	docs, nodes := 0, 0
	for _, p := range w.pairs {
		docs += len(p.docs)
		for _, d := range p.docs {
			nodes += d.mig.Tree.Size()
		}
	}
	r.note("%d queries over %d pairs; %d migrated documents, %d nodes", n, len(w.pairs), docs, nodes)
}

func (w *queryWorkload) layers(pass *traceResult, probe *lane, out map[string]float64) error {
	ctx := context.Background()
	setup := probe.tr
	out["embedding.apply_ms"] = ms(sumOf(setup, "embedding.ApplyCtx"))

	// Probe: the raw translation (NoOptimize) and the optimizer as two
	// calls. The optimized automaton must match the default path's.
	var before, after int
	for _, p := range w.pairs {
		raw, err := translate.NewWithOptions(p.emb, translate.Options{NoOptimize: true})
		if err != nil {
			return err
		}
		for _, op := range p.ops {
			if op.auto == nil {
				continue
			}
			sp := probe.start("translate.TranslateCtx", "no_optimize")
			auto, err := raw.TranslateCtx(ctx, op.q)
			probe.stop(sp)
			if err != nil {
				return fmt.Errorf("%q: %w", op.text, err)
			}
			before += auto.Size()
			sp = probe.start("anfa.Optimize", "")
			anfa.Optimize(auto, anfa.OptOptions{Schema: p.emb.Target})
			probe.stop(sp)
			if auto.Size() != op.auto.Size() {
				return fmt.Errorf("%q: NoOptimize + Optimize gives size %d, the default path %d", op.text, auto.Size(), op.auto.Size())
			}
			after += auto.Size()
		}
	}
	out["translate.tr_us"] = meanOf(setup, "translate.TranslateCtx") * 1e3
	out["anfa.optimize_us"] = meanOf(setup, "anfa.Optimize") * 1e3
	out["anfa.size_before"] = float64(before)
	out["anfa.size"] = float64(after)
	out["anfa.shrink"] = ratio(float64(after), float64(before))

	parse, n := pass.total("xpath.Parse", "")
	out["xpath.parse_us"] = ratio(float64(parse)/1e3, float64(n))
	compile, n := pass.total("anfa.Compile", "")
	out["anfa.compile_us"] = ratio(float64(compile)/1e3, float64(n))
	run, _ := pass.total("anfa.Program.Run", "")
	out["anfa.run_ms"] = ms(run)
	nodes := 0
	for _, p := range w.pairs {
		per := 0
		for _, d := range p.docs {
			per += d.mig.Tree.Size()
		}
		nodes += per * len(p.ops)
	}
	out["anfa.run_ns_per_node"] = ratio(float64(run), float64(nodes))
	return nil
}

func (w *queryWorkload) close() {}
