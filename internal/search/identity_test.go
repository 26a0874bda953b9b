package search_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/match"
	"repro/internal/search"
	"repro/internal/workload"
)

// identityCase is one deterministic search pinned by
// testdata/identity.golden.
type identityCase struct {
	name     string
	src, tgt *dtd.DTD
	att      *embedding.SimMatrix
	h        search.Heuristic
}

// identityCases lists the QualityOrdered and Exact searches whose
// embeddings must not move when the search prunes more: the four
// corpus pairs on their lexical matrices, the Figure 1 pair, a pair
// with no embedding, and small synthetic noise pairs. Neither heuristic
// shuffles, so pruning a candidate that cannot lead to an embedding
// leaves the visiting order of the survivors, and hence the first
// embedding found, unchanged.
func identityCases(t *testing.T) []identityCase {
	t.Helper()
	var out []identityCase
	pairs, err := corpus.Pairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		out = append(out, identityCase{p.Name, p.Source, p.Target,
			match.Lexical(p.Source, p.Target, 0), search.QualityOrdered})
	}
	out = append(out, identityCase{"class->school", workload.ClassDTD(), workload.SchoolDTD(), nil, search.Exact})
	// A pair with no embedding: Exact must keep proving it.
	out = append(out, identityCase{"empty-target",
		dtd.MustNew("A", dtd.D("A", dtd.Concat("B", "C")), dtd.D("B", dtd.Str()), dtd.D("C", dtd.Empty())),
		dtd.MustNew("R", dtd.D("R", dtd.Concat("S")), dtd.D("S", dtd.Empty())),
		nil, search.Exact})
	for i, size := range []int{8, 10, 12, 14, 16, 20} {
		r := rand.New(rand.NewSource(int64(100 + i)))
		base := workload.MustSyntheticDTD(r, size)
		nc := workload.Noise(base, workload.NoiseLevel(0.2), r)
		att := match.Synthetic(base, nc.DTD, nc.Truth,
			match.SyntheticOptions{Accuracy: 0.8, Ambiguity: 3}, r)
		for _, h := range []search.Heuristic{search.QualityOrdered, search.Exact} {
			out = append(out, identityCase{fmt.Sprintf("synthetic%d", size), base, nc.DTD, att, h})
		}
	}
	return out
}

// TestQualityExactIdentityGolden: QualityOrdered and Exact return
// byte-identical embeddings to the ones pinned in
// testdata/identity.golden, which was generated before search pruning
// was introduced.
func TestQualityExactIdentityGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range identityCases(t) {
		res, err := search.Find(c.src, c.tgt, c.att,
			search.Options{Heuristic: c.h, Seed: 1, MaxRestarts: 40})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.name, c.h, err)
		}
		fmt.Fprintf(&b, "=== %s %s ===\n", c.name, c.h)
		if res.Embedding == nil {
			fmt.Fprintf(&b, "none exhausted=%v\n", res.Exhausted)
			continue
		}
		fmt.Fprintf(&b, "qual=%.6f\n", res.Quality)
		b.WriteString(res.Embedding.Marshal())
	}
	got := b.String()
	path := filepath.Join("testdata", "identity.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("QualityOrdered/Exact output diverged from %s:\ngot:\n%s", path, got)
	}
}
