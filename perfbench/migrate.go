package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/embedding"
	"repro/internal/pipeline"
	"repro/internal/xmltree"
)

// The migrate workload: generated documents for the four corpus pairs
// and the reordering auction embedding, many small ones (about 400
// nodes) and a few large ones (10k to 20k nodes), forward through
// pipeline.Run — the stream path xse-map -batch takes — and back
// through xmltree.Parse, InvertCtx and Write. Decoding dominates both
// directions, and the inverse leg uses the other decode loop (Parse).
// The two document sizes separate per-document from per-byte cost.
// Search does nothing here.
//
// The large documents take at most three eighths of a pair's bytes.
// Their trees outgrow the processor caches, and when other tenants of
// the shared host slowed a run down they slowed the large documents
// more: over ten seeds the slowest run's median document latency was
// 1.38 times the fastest run's, its work 1.61 times, with large
// documents making up 60–75% of the bytes.
const (
	smallNodes = 400
	largeNodes = 10_000
	largeBytes = 750_000   // at most, per pair
	pairBytes  = 2_000_000 // source bytes per pair
)

type migrateDoc struct {
	nodes int
	text  []byte
	out   bytes.Buffer // forward output of the last pass
	back  bytes.Buffer // inverse output of the last pass
}

type migratePair struct {
	*schemaPair
	prog *embedding.StreamProgram
	docs []*migrateDoc
}

type migrateWorkload struct {
	pairs []*migratePair
	// Per-pass wall and bytes of the two legs.
	fwdS, invS []float64
	invBytes   int64
	docsFailed int
}

func (w *migrateWorkload) opsLabel() string { return "document" }

func (w *migrateWorkload) setup(cfg runConfig, tl *lane) error {
	pairs, err := loadPairs(tl)
	if err != nil {
		return err
	}
	if err := embedPairs(tl, pairs); err != nil {
		return err
	}
	pairs = append(pairs, auctionPair())
	for _, p := range pairs {
		sp := tl.start("embedding.CompileStream", p.name)
		prog, err := p.emb.CompileStream()
		tl.stop(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		mp := &migratePair{schemaPair: p, prog: prog}
		trees, texts, err := docSet(tl, p.src, cfg.seed, p.name, unitBytes, smallNodes, largeNodes, largeBytes, pairBytes)
		if err != nil {
			return err
		}
		for i := range trees {
			// Only the bytes stay live: a tree per document would make
			// every GC cycle of the timed passes mark the inputs too.
			mp.docs = append(mp.docs, &migrateDoc{nodes: trees[i].Size(), text: texts[i]})
		}
		w.pairs = append(w.pairs, mp)
	}
	return nil
}

// memDoc adapts an in-memory document to pipeline.Doc.
func memDoc(name string, d *migrateDoc) pipeline.Doc {
	return pipeline.Doc{
		Name: name,
		Open: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(d.text)), nil },
		Sink: func() (io.WriteCloser, error) {
			d.out.Reset()
			return nopWriteCloser{&d.out}, nil
		},
		Abort: func() { d.out.Reset() },
	}
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// pass migrates every document forward with one pipeline worker per
// pair, then maps every output back; its work is the time of the two
// legs, the forward leg by pair and the inverse leg by document. Each
// pair starts from a collected heap (outside the legs'
// timing); otherwise where the collector ran while a large document's
// tree was live moved peak_rss_mb by 20% from run to run.
func (w *migrateWorkload) pass(rec *recorder, tl *lane) error {
	ctx := context.Background()
	var fwd, inv time.Duration
	w.invBytes, w.docsFailed = 0, 0
	k := 0 // operation index: documents in pair order
	for _, p := range w.pairs {
		sp := tl.start("runtime.GC", "")
		runtime.GC()
		tl.stop(sp)
		docs := make([]pipeline.Doc, len(p.docs))
		for i, d := range p.docs {
			docs[i] = memDoc(fmt.Sprintf("%s-%d", p.name, i), d)
		}
		tl.beginOp()
		t0 := time.Now()
		sp = tl.start("pipeline.Run", p.name)
		results, stats, err := pipeline.Run(ctx, p.emb, docs, pipeline.Options{Workers: 1})
		tl.stop(sp)
		df := time.Since(t0)
		fwd += df
		rec.work("forward/"+p.name, df)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		w.docsFailed += stats.Failed
		for i, d := range p.docs {
			k++
			if results[i].Err != nil {
				fmt.Printf("document %s failed: %v\n", results[i].Name, results[i].Err)
				rec.op(k, results[i].Elapsed, opFailed)
				continue
			}
			tl.beginOp()
			t0 := time.Now()
			err := invertDoc(ctx, tl, p.emb, d)
			di := time.Since(t0)
			inv += di
			rec.work(fmt.Sprintf("inverse/%s/%d", p.name, i), di)
			w.invBytes += int64(d.out.Len())
			if err != nil {
				fmt.Printf("document %s: inverse: %v\n", results[i].Name, err)
				rec.op(k, results[i].Elapsed+di, opFailed)
				continue
			}
			rec.op(k, results[i].Elapsed+di, opOK)
		}
	}
	w.fwdS = append(w.fwdS, fwd.Seconds())
	w.invS = append(w.invS, inv.Seconds())
	return nil
}

// invertDoc is the inverse leg: parse the forward output, apply σd⁻¹
// and serialize the recovered source document.
func invertDoc(ctx context.Context, tl *lane, emb *embedding.Embedding, d *migrateDoc) error {
	sp := tl.start("xmltree.Parse", "")
	t, err := xmltree.Parse(bytes.NewReader(d.out.Bytes()))
	tl.stop(sp)
	if err != nil {
		return err
	}
	sp = tl.start("embedding.InvertCtx", "")
	src, err := emb.InvertCtx(ctx, t)
	tl.stop(sp)
	if err != nil {
		return err
	}
	d.back.Reset()
	sp = tl.start("xmltree.Write", "")
	err = src.Write(&d.back)
	tl.stop(sp)
	return err
}

// check: each stream output is byte-identical to Apply + Write, and
// σd⁻¹(σd(T)) is T.
func (w *migrateWorkload) check() (int, error) {
	wrong := 0
	for _, p := range w.pairs {
		for i, d := range p.docs {
			t, err := xmltree.Parse(bytes.NewReader(d.text))
			if err != nil {
				return 0, fmt.Errorf("%s-%d: %w", p.name, i, err)
			}
			res, err := p.emb.Apply(t)
			if err != nil {
				return 0, fmt.Errorf("%s-%d: Apply: %w", p.name, i, err)
			}
			var want bytes.Buffer
			if err := res.Tree.Write(&want); err != nil {
				return 0, err
			}
			if !bytes.Equal(want.Bytes(), d.out.Bytes()) {
				fmt.Printf("wrong output: %s-%d: stream output differs from Apply + Write\n", p.name, i)
				wrong++
			}
			if !bytes.Equal(d.back.Bytes(), d.text) {
				fmt.Printf("wrong output: %s-%d: inverse of the forward output is not the source document\n", p.name, i)
				wrong++
			}
		}
	}
	return wrong, nil
}

func (w *migrateWorkload) report(r *report) {
	var fwdBytes int64
	small, large := 0, 0
	for _, p := range w.pairs {
		for _, d := range p.docs {
			fwdBytes += int64(len(d.text))
			if d.nodes >= largeNodes {
				large++
			} else {
				small++
			}
		}
	}
	r.add("migrate_mb_per_s", float64(fwdBytes)/1e6/median(w.fwdS), "MB/s")
	r.add("inverse_mb_per_s", float64(w.invBytes)/1e6/median(w.invS), "MB/s")
	r.note("documents: %d small, %d large, %.2f MB source per pass", small, large, float64(fwdBytes)/1e6)
}

func (w *migrateWorkload) layers(pass *traceResult, probe *lane, out map[string]float64) error {
	ctx := context.Background()
	setup := probe.tr
	out["embedding.compile_stream_us"] = meanOf(setup, "embedding.CompileStream") * 1e3

	// Probe: the stream engine called directly on every document, and
	// a bare tokenize loop over the same bytes.
	var tokens int64
	var fallbacks, peak int
	var inBytes int64
	var b bytes.Buffer
	runtime.GC()
	rt := startRuntimeSample()
	for _, p := range w.pairs {
		for i, d := range p.docs {
			b.Reset()
			sp := probe.start("embedding.StreamProgram.Run", p.name)
			st, err := p.prog.Run(ctx, bytes.NewReader(d.text), &b, embedding.StreamOptions{})
			probe.stop(sp)
			if err != nil {
				return fmt.Errorf("%s-%d: %w", p.name, i, err)
			}
			if !bytes.Equal(b.Bytes(), d.out.Bytes()) {
				return fmt.Errorf("%s-%d: direct stream output differs from pipeline.Run output", p.name, i)
			}
			tokens += st.Tokens
			fallbacks += st.Fallbacks
			peak = max(peak, st.PeakBufferedBytes)
			inBytes += st.InBytes
		}
	}
	alloc := rt.delta().allocBytes
	var tokTokens int64
	for _, p := range w.pairs {
		for i, d := range p.docs {
			sp := probe.start("xmltree.Tokenizer.Next", p.name)
			z := xmltree.NewTokenizer(bytes.NewReader(d.text))
			for {
				tok, err := z.Next()
				if err != nil {
					probe.stop(sp)
					return fmt.Errorf("%s-%d: tokenize: %w", p.name, i, err)
				}
				if tok.Kind == xmltree.TokEOF {
					break
				}
			}
			probe.stop(sp)
			tokTokens += z.Stats().Tokens
		}
	}
	if tokTokens != tokens {
		return fmt.Errorf("tokenize-only pass read %d tokens, the stream engine %d", tokTokens, tokens)
	}
	stream := sumOf(setup, "embedding.StreamProgram.Run")
	tokenize := sumOf(setup, "xmltree.Tokenizer.Next")
	out["embedding.stream_ms"] = ms(stream)
	out["embedding.stream_tokens"] = float64(tokens)
	out["embedding.stream_fallbacks"] = float64(fallbacks)
	out["embedding.stream_peak_buffered_bytes"] = float64(peak)
	out["embedding.stream_alloc_b_per_in_b"] = ratio(alloc, float64(inBytes))
	out["xmltree.tokenize_mb_per_s"] = ratio(float64(inBytes)/1e6, tokenize.Seconds())
	out["xmltree.tokenize_share"] = ratio(float64(tokenize), float64(stream))

	run, _ := pass.total("pipeline.Run", "")
	parse, _ := pass.total("xmltree.Parse", "")
	invert, _ := pass.total("embedding.InvertCtx", "")
	write, _ := pass.total("xmltree.Write", "")
	out["pipeline.overhead_ms"] = ms(run - stream)
	out["pipeline.docs_failed"] = float64(w.docsFailed)
	out["embedding.invert_ms"] = ms(invert)
	out["xmltree.parse_mb_per_s"] = ratio(float64(w.invBytes)/1e6, parse.Seconds())
	out["xmltree.parse_share"] = ratio(float64(parse), float64(parse+invert+write))
	out["xmltree.write_ms"] = ms(write)
	return nil
}

func (w *migrateWorkload) close() {}
