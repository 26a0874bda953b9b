package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"

	"repro/internal/corpus"
	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/match"
	"repro/internal/search"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// subSeed derives the seed of one input from the workload seed and the
// input's name and index, so an operation's seed never depends on how
// many times a pass repeats it.
func subSeed(seed int64, name string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, name, i)
	return int64(h.Sum64() >> 1)
}

// schemaPair is one source/target schema pair with its texts.
type schemaPair struct {
	name             string
	src, tgt         *dtd.DTD
	srcText, tgtText string
	queryTexts       []string
	att              *embedding.SimMatrix // lexical, threshold 0
	emb              *embedding.Embedding // nil until embedPairs
}

// loadPairs reads the four checked-in corpus pairs and parses their
// DTD texts, recording the parse and similarity-matrix calls.
func loadPairs(tl *lane) ([]*schemaPair, error) {
	sp := tl.start("corpus.Pairs", "")
	ps, err := corpus.Pairs()
	tl.stop(sp)
	if err != nil {
		return nil, err
	}
	var out []*schemaPair
	for _, p := range ps {
		sp := &schemaPair{name: p.Name, srcText: p.SourceText, tgtText: p.TargetText, queryTexts: p.QueryTexts}
		if sp.src, err = parseDTD(tl, p.SourceText); err != nil {
			return nil, fmt.Errorf("%s source: %w", p.Name, err)
		}
		if sp.tgt, err = parseDTD(tl, p.TargetText); err != nil {
			return nil, fmt.Errorf("%s target: %w", p.Name, err)
		}
		sp.att = lexical(tl, sp.src, sp.tgt)
		out = append(out, sp)
	}
	return out, nil
}

func parseDTD(tl *lane, text string) (*dtd.DTD, error) {
	sp := tl.start("dtd.Parse", "")
	defer tl.stop(sp)
	return dtd.Parse(text, "")
}

func lexical(tl *lane, src, tgt *dtd.DTD) *embedding.SimMatrix {
	sp := tl.start("match.Lexical", "")
	defer tl.stop(sp)
	return match.Lexical(src, tgt, 0)
}

// embedPairs gives every pair the embedding the quality-ordered search
// finds on the lexical matrix (found at once on all four pairs).
func embedPairs(tl *lane, pairs []*schemaPair) error {
	for _, p := range pairs {
		sp := tl.start("search.FindCtx", "quality")
		res, err := search.FindCtx(context.Background(), p.src, p.tgt, p.att,
			search.Options{Heuristic: search.QualityOrdered, Seed: 1, MaxRestarts: 40})
		tl.stop(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if res.Embedding == nil {
			return fmt.Errorf("%s: quality-ordered search found no embedding", p.name)
		}
		p.emb = res.Embedding
	}
	return nil
}

// auctionPair is the reordering marketplace-to-auction embedding: its
// productions take the stream engine's buffered fallback.
func auctionPair() *schemaPair {
	emb := workload.AuctionEmbedding()
	return &schemaPair{name: "auction", src: emb.Source, tgt: emb.Target, emb: emb}
}

// docUnit is what a document set's budget counts.
type docUnit int

const (
	unitBytes docUnit = iota // serialized bytes: decoding cost
	unitNodes                // tree nodes: query evaluation cost
)

// genDocs generates documents of about nodes nodes each, keeping a
// document only while the set stays within hi units, until the set
// holds at least lo units or the attempts run out. The generator
// overshoots its node target by up to 8x (on mondial more than half
// its documents are over twice the target), so the budget, not the document
// count, is what stays the same from seed to seed; a document of more
// than twice the target is skipped, which keeps the per-document
// latencies alike, so the upper document latencies do not hang on how
// many oversized documents a seed draws.
func genDocs(tl *lane, d *dtd.DTD, seed int64, tag string, nodes int, unit docUnit, lo, hi, maxAttempts int) ([]*xmltree.Tree, [][]byte, int, error) {
	var trees []*xmltree.Tree
	var texts [][]byte
	total := 0
	for i := 0; total < lo && i < maxAttempts; i++ {
		sp := tl.start("corpus.GenerateSized", tag)
		t, err := corpus.GenerateSized(d, subSeed(seed, tag, i), nodes)
		tl.stop(sp)
		if err != nil {
			return nil, nil, 0, err
		}
		if t.Size() > 2*nodes {
			continue
		}
		var b bytes.Buffer
		sp = tl.start("xmltree.Write", tag)
		err = t.Write(&b)
		tl.stop(sp)
		if err != nil {
			return nil, nil, 0, err
		}
		size := b.Len()
		if unit == unitNodes {
			size = t.Size()
		}
		if total+size > hi {
			continue
		}
		trees = append(trees, t)
		texts = append(texts, b.Bytes())
		total += size
	}
	return trees, texts, total, nil
}

// docSet generates one pair's documents: large ones (about largeNodes
// nodes) filling between 80% and all of largeBudget, then small ones
// (about smallNodes nodes) until the set holds totalBudget units, give
// or take 5%. A schema whose large documents never fit gets small ones
// only. The large share decides how many small documents each pair
// gets, so it is held within a fifth of the budget rather than a half.
func docSet(tl *lane, d *dtd.DTD, seed int64, tag string, unit docUnit, smallNodes, largeNodes, largeBudget, totalBudget int) ([]*xmltree.Tree, [][]byte, error) {
	slack := totalBudget / 20
	var trees []*xmltree.Tree
	var texts [][]byte
	used := 0
	if largeBudget > 0 {
		lt, lx, n, err := genDocs(tl, d, seed, tag+"/large", largeNodes, unit, largeBudget*4/5, largeBudget+largeBudget/20, 48)
		if err != nil {
			return nil, nil, err
		}
		trees, texts, used = lt, lx, n
	}
	st, sx, _, err := genDocs(tl, d, seed, tag+"/small", smallNodes, unit, totalBudget-used-slack, totalBudget-used+slack, 1024)
	if err != nil {
		return nil, nil, err
	}
	if len(st)+len(trees) == 0 {
		return nil, nil, fmt.Errorf("%s: no documents generated", tag)
	}
	return append(trees, st...), append(texts, sx...), nil
}
