package search

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/obs"
)

// failingPair builds a pair with no embedding: the target root is
// empty, so the reachability closure rules out every λ candidate before
// the search places any.
func failingPair() (*dtd.DTD, *dtd.DTD) {
	src := dtd.MustNew("A",
		dtd.D("A", dtd.Concat("B", "C")),
		dtd.D("B", dtd.Empty()),
		dtd.D("C", dtd.Empty()))
	tgt := dtd.MustNew("R", dtd.D("R", dtd.Empty()))
	return src, tgt
}

// identityPair embeds trivially into itself.
func identityPair() (*dtd.DTD, *dtd.DTD) {
	d := dtd.MustNew("A",
		dtd.D("A", dtd.Concat("B", "C")),
		dtd.D("B", dtd.Str()),
		dtd.D("C", dtd.Empty()))
	return d, d
}

func TestLedgerDisabledByDefault(t *testing.T) {
	src, tgt := failingPair()
	res, err := Find(src, tgt, nil, Options{Seed: 1, MaxRestarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger != nil {
		t.Fatalf("Ledger recorded without Explain: %+v", res.Ledger)
	}
	if res.Rejections.Total() != 0 {
		t.Fatalf("Rejections counted without Explain: %+v", res.Rejections)
	}
}

func TestLedgerRecordsFailure(t *testing.T) {
	src, tgt := failingPair()
	res, err := Find(src, tgt, nil, Options{Seed: 1, MaxRestarts: 3, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding != nil {
		t.Fatal("unexpected embedding into an empty target")
	}
	if len(res.Ledger) == 0 {
		t.Fatal("Explain produced no ledger records")
	}
	for _, r := range res.Ledger {
		if r.Heuristic != "Random" {
			t.Errorf("record heuristic = %q", r.Heuristic)
		}
		if r.Outcome != OutcomeExhausted {
			t.Errorf("restart %d outcome = %q, want %q", r.Restart, r.Outcome, OutcomeExhausted)
		}
		if r.PlacementDepth != 0 {
			t.Errorf("restart %d placement depth = %d, want 0 (no λ survives the filter)", r.Restart, r.PlacementDepth)
		}
	}
	if res.Rejections.Unreachable == 0 {
		t.Errorf("expected unreachable rejections against an empty target, got %+v", res.Rejections)
	}
}

// TestLedgerRecordsPathEmpty: when the closure admits a path but
// MaxPathLen rules it out, the rejection is path_empty, not
// unreachable.
// longPathPair embeds only through the three-step path R/X/Y/Z, which
// the reachability closure admits and MaxPathLen 2 rules out.
func longPathPair() (src, tgt *dtd.DTD, att *embedding.SimMatrix) {
	src = dtd.MustNew("A",
		dtd.D("A", dtd.Concat("B")),
		dtd.D("B", dtd.Empty()))
	tgt = dtd.MustNew("R",
		dtd.D("R", dtd.Concat("X")),
		dtd.D("X", dtd.Concat("Y")),
		dtd.D("Y", dtd.Concat("Z")),
		dtd.D("Z", dtd.Empty()))
	att = embedding.NewSimMatrix()
	att.Set("A", "R", 1)
	att.Set("B", "Z", 1)
	return src, tgt, att
}

func TestLedgerRecordsPathEmpty(t *testing.T) {
	src, tgt, att := longPathPair()
	res, err := Find(src, tgt, att, Options{Seed: 1, MaxRestarts: 2, MaxPathLen: 2, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding != nil {
		t.Fatal("embedding found through a path longer than MaxPathLen")
	}
	if res.Rejections.PathEmpty == 0 || res.Rejections.Unreachable != 0 {
		t.Errorf("rejections = %+v, want path_empty and no unreachable", res.Rejections)
	}
	// At the default bound the three-step path R/X/Y/Z is found.
	res, err = Find(src, tgt, att, Options{Seed: 1, MaxRestarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding == nil {
		t.Fatal("no embedding at the default path-length bound")
	}
}

func TestLedgerRecordsSuccess(t *testing.T) {
	src, tgt := identityPair()
	res, err := Find(src, tgt, nil, Options{Seed: 1, MaxRestarts: 3, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding == nil {
		t.Fatal("identity pair not embedded")
	}
	if n := len(res.Ledger); n == 0 {
		t.Fatal("no ledger records")
	}
	last := res.Ledger[len(res.Ledger)-1]
	if last.Outcome != OutcomeFound {
		t.Errorf("final outcome = %q, want %q", last.Outcome, OutcomeFound)
	}
}

func TestLedgerBound(t *testing.T) {
	src, tgt := failingPair()
	res, err := Find(src, tgt, nil, Options{Seed: 1, MaxRestarts: 40, Explain: true, MaxLedger: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ledger) > 5 {
		t.Fatalf("ledger exceeded MaxLedger: %d records", len(res.Ledger))
	}
}

func TestLedgerParallel(t *testing.T) {
	src, tgt := failingPair()
	res, err := Find(src, tgt, nil, Options{
		Seed: 1, MaxRestarts: 12, Explain: true, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ledger) == 0 {
		t.Fatal("parallel search produced no ledger records")
	}
	for i := 1; i < len(res.Ledger); i++ {
		if res.Ledger[i].Restart < res.Ledger[i-1].Restart {
			t.Fatalf("ledger out of restart order: %d after %d",
				res.Ledger[i].Restart, res.Ledger[i-1].Restart)
		}
	}
	if res.Rejections.Total() == 0 {
		t.Error("parallel aggregate rejections all zero")
	}
}

func TestLedgerIndepSetOutcomes(t *testing.T) {
	src, tgt, att := longPathPair()
	res, err := Find(src, tgt, att, Options{
		Seed: 1, MaxRestarts: 2, MaxPathLen: 2, Explain: true, Heuristic: IndepSet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ledger) != 3 {
		t.Fatalf("IndepSet produced %d ledger records, want one per restart", len(res.Ledger))
	}
	for _, r := range res.Ledger {
		switch r.Outcome {
		case OutcomeNoOptions, OutcomeConflict, OutcomeInvalid, OutcomeFound, OutcomeCanceled, OutcomeStepBudget:
		default:
			t.Errorf("unexpected IndepSet outcome %q", r.Outcome)
		}
	}
}

// TestIndepSetDeadDomainExhausted: when the filter empties a domain,
// IndepSet stops at restart 0 and reports the pair exhausted, like the
// backtracking heuristics.
func TestIndepSetDeadDomainExhausted(t *testing.T) {
	src, tgt := failingPair()
	res, err := Find(src, tgt, nil, Options{
		Seed: 1, MaxRestarts: 2, Explain: true, Heuristic: IndepSet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding != nil || !res.Exhausted || res.Restarts != 0 || res.Steps != 0 {
		t.Fatalf("got embedding=%v exhausted=%v restarts=%d steps=%d, want an exhausted restart 0 with no steps",
			res.Embedding != nil, res.Exhausted, res.Restarts, res.Steps)
	}
	if len(res.Ledger) != 1 || res.Ledger[0].Outcome != OutcomeExhausted {
		t.Fatalf("ledger = %+v, want one exhausted restart", res.Ledger)
	}
	if res.Rejections.Unreachable == 0 {
		t.Errorf("rejections = %+v, want unreachable", res.Rejections)
	}
}

func TestLedgerEmitsRestartEvents(t *testing.T) {
	rec := obs.NewRecorder(64)
	ctx := obs.WithEmitter(context.Background(), obs.NewEmitter(nil, rec))
	ctx = obs.WithRequestID(ctx, "feedfacecafebeef")

	src, tgt := identityPair()
	if _, err := FindCtx(ctx, src, tgt, nil, Options{Seed: 1, Explain: true}); err != nil {
		t.Fatal(err)
	}
	evs := rec.Snapshot()
	if len(evs) == 0 {
		t.Fatal("no search.restart events recorded")
	}
	for _, e := range evs {
		if e.Name != "search.restart" {
			t.Errorf("event name = %q", e.Name)
		}
		if !e.MatchAttr("request_id", "feedfacecafebeef") {
			t.Errorf("event missing request_id: %+v", e.Attrs)
		}
	}
}

func TestLedgerNoEventsWithoutEmitter(t *testing.T) {
	// Explain without a context emitter must not panic or emit.
	src, tgt := identityPair()
	if _, err := Find(src, tgt, nil, Options{Seed: 1, Explain: true}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteLedger(t *testing.T) {
	src, tgt := failingPair()
	res, err := Find(src, tgt, nil, Options{Seed: 1, MaxRestarts: 2, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteLedger(&b, res)
	out := b.String()
	for _, want := range []string{"RESTART", "OUTCOME", "exhausted", "totals:", "unreachable="} {
		if !strings.Contains(out, want) {
			t.Errorf("ledger table missing %q:\n%s", want, out)
		}
	}
	var empty strings.Builder
	WriteLedger(&empty, &Result{})
	if !strings.Contains(empty.String(), "empty") {
		t.Errorf("empty ledger rendering = %q", empty.String())
	}
}
