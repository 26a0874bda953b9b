package embedding_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// treeMigrate is the reference path: Apply + encode.
func treeMigrate(t *testing.T, emb *embedding.Embedding, doc string) (string, error) {
	t.Helper()
	src, err := xmltree.ParseString(doc)
	if err != nil {
		return "", err
	}
	res, err := emb.Apply(src)
	if err != nil {
		return "", err
	}
	return res.Tree.String(), nil
}

func streamMigrate(emb *embedding.Embedding, doc string, opts embedding.StreamOptions) (string, embedding.StreamStats, error) {
	p, err := emb.CompileStream()
	if err != nil {
		return "", embedding.StreamStats{}, err
	}
	var out bytes.Buffer
	st, err := p.Run(context.Background(), strings.NewReader(doc), &out, opts)
	return out.String(), st, err
}

// streamFixtures pairs each workload embedding with whether its
// productions compile fully streaming (hole order = document order) or
// legitimately need the bounded reorder fallback for some productions.
func streamFixtures() map[string]struct {
	emb       *embedding.Embedding
	streaming bool
} {
	return map[string]struct {
		emb       *embedding.Embedding
		streaming bool
	}{
		"class":   {workload.ClassEmbedding(), true},
		"student": {workload.StudentEmbedding(), true},
		"auction": {workload.AuctionEmbedding(), false},
	}
}

// TestStreamMatchesApply is the core differential: streaming output
// must be byte-identical to the tree path on generated documents.
func TestStreamMatchesApply(t *testing.T) {
	for name, fx := range streamFixtures() {
		emb := fx.emb
		t.Run(name, func(t *testing.T) {
			p, err := emb.CompileStream()
			if err != nil {
				t.Fatalf("CompileStream: %v", err)
			}
			for seed := int64(0); seed < 25; seed++ {
				r := rand.New(rand.NewSource(seed))
				doc := xmltree.MustGenerate(emb.Source, r, xmltree.GenOptions{StarMax: 4}).String()
				want, err := treeMigrate(t, emb, doc)
				if err != nil {
					t.Fatalf("seed %d: Apply: %v", seed, err)
				}
				var out bytes.Buffer
				st, err := p.Run(context.Background(), strings.NewReader(doc), &out, embedding.StreamOptions{Obs: obs.Nop()})
				if err != nil {
					t.Fatalf("seed %d: stream: %v", seed, err)
				}
				if out.String() != want {
					t.Fatalf("seed %d: stream output differs from tree path\nsource:\n%s\n got:\n%s\nwant:\n%s",
						seed, doc, out.String(), want)
				}
				if st.OutBytes != int64(out.Len()) {
					t.Errorf("seed %d: OutBytes = %d, wrote %d", seed, st.OutBytes, out.Len())
				}
				if st.InBytes != int64(len(doc)) {
					t.Errorf("seed %d: InBytes = %d, doc is %d", seed, st.InBytes, len(doc))
				}
				if st.Tokens <= 0 || st.Nodes <= 0 || st.MaxDepth <= 0 {
					t.Errorf("seed %d: degenerate stats %+v", seed, st)
				}
				if fx.streaming {
					if st.Fallbacks != 0 || st.PeakBufferedBytes != 0 {
						t.Errorf("seed %d: non-reordering embedding took fallbacks: %+v", seed, st)
					}
				} else if st.PeakBufferedBytes > 64<<10 {
					// Reordering productions buffer per node, not per
					// document: the peak must stay modest no matter the
					// generated size.
					t.Errorf("seed %d: peak buffered bytes %d not bounded", seed, st.PeakBufferedBytes)
				}
			}
		})
	}
}

// TestStreamApplyConvenience exercises the one-shot entry point.
func TestStreamApplyConvenience(t *testing.T) {
	emb := workload.ClassEmbedding()
	doc := xmltree.MustGenerate(emb.Source, rand.New(rand.NewSource(7)), xmltree.GenOptions{StarMax: 3}).String()
	want, err := treeMigrate(t, emb, doc)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := embedding.StreamApply(context.Background(), emb, strings.NewReader(doc), &out); err != nil {
		t.Fatalf("StreamApply: %v", err)
	}
	if out.String() != want {
		t.Fatalf("StreamApply differs from tree path")
	}
}

// reorderEmbedding maps a source concatenation (a, b) to a target that
// declares them in the opposite order (bb, aa): the instance mapping
// must emit b's fragment before a's, which genuinely needs buffering.
func reorderEmbedding(t *testing.T) *embedding.Embedding {
	t.Helper()
	src := dtd.MustNew("s",
		dtd.D("s", dtd.Concat("a", "b")),
		dtd.D("a", dtd.Str()),
		dtd.D("b", dtd.Str()),
	)
	tgt := dtd.MustNew("t",
		dtd.D("t", dtd.Concat("bb", "aa")),
		dtd.D("aa", dtd.Str()),
		dtd.D("bb", dtd.Str()),
	)
	e := embedding.New(src, tgt)
	e.MapType("s", "t").MapType("a", "aa").MapType("b", "bb")
	e.SetPath(embedding.Ref("s", "a"), "aa").
		SetPath(embedding.Ref("s", "b"), "bb").
		SetPath(embedding.Ref("a", embedding.StrChild), "text()").
		SetPath(embedding.Ref("b", embedding.StrChild), "text()")
	if err := e.Validate(nil); err != nil {
		t.Fatalf("reorder fixture invalid: %v", err)
	}
	return e
}

// TestStreamReorderFallback checks the buffered path: identical bytes,
// and the fallback is visible in the stats.
func TestStreamReorderFallback(t *testing.T) {
	emb := reorderEmbedding(t)
	doc := "<s><a>first</a><b>second</b></s>"
	want, err := treeMigrate(t, emb, doc)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	got, st, err := streamMigrate(emb, doc, embedding.StreamOptions{Obs: obs.Nop()})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if got != want {
		t.Fatalf("reorder output differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(got, "<bb>second</bb>") || strings.Index(got, "<bb>") > strings.Index(got, "<aa>") {
		t.Fatalf("children not reordered:\n%s", got)
	}
	if st.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", st.Fallbacks)
	}
	if st.PeakBufferedBytes <= 0 {
		t.Errorf("PeakBufferedBytes = %d, want > 0", st.PeakBufferedBytes)
	}
}

// TestStreamConformance rejects the same documents the tree path
// rejects.
func TestStreamConformance(t *testing.T) {
	emb := workload.ClassEmbedding()
	bad := []struct {
		name string
		doc  string
	}{
		{"wrong-root", "<notdb/>"},
		{"unknown-element", "<db><zzz/></db>"},
		{"wrong-child", "<db><class><title>t</title><cno>c</cno><type><project>p</project></type></class></db>"},
		{"missing-child", "<db><class><cno>c</cno></class></db>"},
		{"str-missing-text", "<db><class><cno></cno><title>t</title><type><project>p</project></type></class></db>"},
		{"str-element-child", "<db><class><cno><x/></cno><title>t</title><type><project>p</project></type></class></db>"},
		{"disj-two-children", "<db><class><cno>c</cno><title>t</title><type><project>p</project><project>q</project></type></class></db>"},
		{"disj-bad-disjunct", "<db><class><cno>c</cno><title>t</title><type><title>x</title></type></class></db>"},
		{"star-bad-child", "<db><title>t</title></db>"},
		{"text-in-star", "<db>stray</db>"},
		{"extra-child", "<db><class><cno>c</cno><title>t</title><type><project>p</project></type><cno>d</cno></class></db>"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := treeMigrate(t, emb, tc.doc); err == nil {
				t.Fatalf("tree path accepted %q", tc.doc)
			}
			_, _, err := streamMigrate(emb, tc.doc, embedding.StreamOptions{Obs: obs.Nop()})
			if err == nil {
				t.Fatalf("stream accepted %q", tc.doc)
			}
			var se *embedding.StreamError
			if !errors.As(err, &se) || se.Stage != "map" {
				t.Fatalf("error = %v, want map-stage StreamError", err)
			}
		})
	}
}

// TestStreamErrorStages checks the stage tagging: tokenizer failures
// are "parse", conformance is "map" (covered above), sink failures are
// "write".
func TestStreamErrorStages(t *testing.T) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("parse", func(t *testing.T) {
		var out bytes.Buffer
		// Malformed markup: the decoder fails before any token reaches
		// the conformance checks.
		_, err := p.Run(context.Background(), strings.NewReader("<db><cl<"), &out, embedding.StreamOptions{Obs: obs.Nop()})
		var se *embedding.StreamError
		if !errors.As(err, &se) || se.Stage != "parse" {
			t.Fatalf("error = %v, want parse-stage StreamError", err)
		}
	})
	t.Run("write", func(t *testing.T) {
		doc := xmltree.MustGenerate(emb.Source, rand.New(rand.NewSource(1)), xmltree.GenOptions{StarMax: 8}).String()
		_, err := p.Run(context.Background(), strings.NewReader(doc), failWriter{}, embedding.StreamOptions{Obs: obs.Nop()})
		var se *embedding.StreamError
		if !errors.As(err, &se) || se.Stage != "write" {
			t.Fatalf("error = %v, want write-stage StreamError", err)
		}
	})
}

// TestStreamRejectsTextOutsideRoot: character data before or after
// the root element fails the stream path at the parse stage, as it
// fails xmltree.Parse on the tree path, instead of being dropped.
func TestStreamRejectsTextOutsideRoot(t *testing.T) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"junk<db/>", "<db/>junk", "<db/><![CDATA[x]]>", "<db/><!-- c --> x "} {
		var out bytes.Buffer
		_, err := p.Run(context.Background(), strings.NewReader(doc), &out, embedding.StreamOptions{Obs: obs.Nop()})
		var se *embedding.StreamError
		if !errors.As(err, &se) || se.Stage != "parse" {
			t.Errorf("Run(%q) error = %v, want parse-stage StreamError", doc, err)
		}
		if _, err := xmltree.ParseString(doc); err == nil {
			t.Errorf("Parse(%q) succeeded, want an error", doc)
		}
	}
	// White space, comments and PIs around the root stay allowed.
	var out bytes.Buffer
	if _, err := p.Run(context.Background(), strings.NewReader("\n<?pi x?> <db/>\n<!-- c -->\n"), &out, embedding.StreamOptions{Obs: obs.Nop()}); err != nil {
		t.Fatalf("Run with white space around the root: %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("sink broken") }

// TestStreamLimits: guard enforcement surfaces through Run with the
// parse stage and the typed limit error.
func TestStreamLimits(t *testing.T) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	doc := xmltree.MustGenerate(emb.Source, rand.New(rand.NewSource(3)), xmltree.GenOptions{StarMax: 6}).String()
	cases := []struct {
		name      string
		lim       guard.Limits
		wantLimit string
	}{
		{"input-bytes", guard.Limits{MaxInputBytes: 32}, "input-bytes"},
		{"depth", guard.Limits{MaxDepth: 2}, "depth"},
		{"nodes", guard.Limits{MaxNodes: 3}, "nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			_, err := p.Run(context.Background(), strings.NewReader(doc), &out,
				embedding.StreamOptions{Limits: tc.lim, Obs: obs.Nop()})
			var le *guard.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("error = %v, want *guard.LimitError", err)
			}
			if le.Limit != tc.wantLimit {
				t.Fatalf("limit = %q, want %q", le.Limit, tc.wantLimit)
			}
		})
	}
}

// TestStreamCancel: a canceled context unwinds with a CancelError.
func TestStreamCancel(t *testing.T) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	doc := xmltree.MustGenerate(emb.Source, rand.New(rand.NewSource(3)), xmltree.GenOptions{StarMax: 3}).String()
	var out bytes.Buffer
	_, err = p.Run(ctx, strings.NewReader(doc), &out, embedding.StreamOptions{Obs: obs.Nop()})
	var ce *guard.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error = %v, want *guard.CancelError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match context.Canceled", err)
	}
}

// TestStreamMetrics: the xse_stream_* instruments account a run.
func TestStreamMetrics(t *testing.T) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStream()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	doc := xmltree.MustGenerate(emb.Source, rand.New(rand.NewSource(5)), xmltree.GenOptions{StarMax: 3}).String()
	var out bytes.Buffer
	st, err := p.Run(context.Background(), strings.NewReader(doc), &out, embedding.StreamOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]uint64{}
	gauges := map[string]int64{}
	for _, m := range reg.Snapshot() {
		counters[m.Name] = m.Counter
		gauges[m.Name] = m.Gauge
	}
	if counters["xse_stream_docs_total"] != 1 {
		t.Errorf("docs_total = %v, want 1", counters["xse_stream_docs_total"])
	}
	if counters["xse_stream_tokens_total"] != uint64(st.Tokens) {
		t.Errorf("tokens_total = %v, want %d", counters["xse_stream_tokens_total"], st.Tokens)
	}
	if gauges["xse_stream_max_depth"] != int64(st.MaxDepth) {
		t.Errorf("max_depth = %v, want %d", gauges["xse_stream_max_depth"], st.MaxDepth)
	}
}

// FuzzStreamMigrate is the streaming-vs-tree fuzz differential: for an
// arbitrary document, either both paths fail, or both succeed with
// byte-identical output.
func FuzzStreamMigrate(f *testing.F) {
	emb := workload.ClassEmbedding()
	p, err := emb.CompileStream()
	if err != nil {
		f.Fatal(err)
	}
	lim := guard.Limits{MaxDepth: 60, MaxInputBytes: 1 << 16, MaxNodes: 4096}
	f.Add("<db/>")
	f.Add("<db><class><cno>CS331</cno><title>DB</title><type><project>solo</project></type></class></db>")
	f.Add("<db><class><cno>1</cno><title>t</title><type><regular><prereq/></regular></type></class></db>")
	f.Fuzz(func(t *testing.T, doc string) {
		var want string
		src, err := xmltree.ParseLimits(strings.NewReader(doc), lim)
		treeOK := err == nil
		if treeOK {
			res, aerr := emb.Apply(src)
			if aerr != nil {
				treeOK = false
			} else {
				want = res.Tree.String()
			}
		}
		var out bytes.Buffer
		_, serr := p.Run(context.Background(), strings.NewReader(doc), &out,
			embedding.StreamOptions{Limits: lim, Obs: obs.Nop()})
		if treeOK != (serr == nil) {
			t.Fatalf("path disagreement on %q: tree ok=%v, stream err=%v", doc, treeOK, serr)
		}
		if treeOK && out.String() != want {
			t.Fatalf("output divergence on %q:\n got:\n%s\nwant:\n%s", doc, out.String(), want)
		}
	})
}
