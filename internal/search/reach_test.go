package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dtd"
	"repro/internal/embedding"
	"repro/internal/match"
	"repro/internal/workload"
)

// randomTarget generates a small well-formed target schema whose
// children may point anywhere, so cycles (recursive targets) are
// common. Fan-out stays at most two so the unbounded enumerations of
// TestReachMatchesEnumerate stay cheap.
func randomTarget(r *rand.Rand) *dtd.DTD {
	n := 2 + r.Intn(5)
	name := func(i int) string { return fmt.Sprintf("t%d", i) }
	var defs []dtd.Def
	for i := 0; i < n; i++ {
		var p dtd.Production
		switch k := r.Intn(6); {
		case k == 0:
			p = dtd.Str()
		case k == 1:
			p = dtd.Empty()
		case k == 2 && n > 1:
			a := r.Intn(n)
			p = dtd.Disj(name(a), name((a+1+r.Intn(n-1))%n))
		case k == 3:
			p = dtd.Star(name(r.Intn(n)))
		default:
			kids := []string{name(r.Intn(n))}
			if r.Intn(2) == 0 {
				kids = append(kids, name(r.Intn(n)))
			}
			p = dtd.Concat(kids...)
		}
		defs = append(defs, dtd.D(name(i), p))
	}
	return dtd.MustNew(name(0), defs...)
}

// TestReachMatchesEnumerate: over generated targets, recursive ones
// included, the closure agrees with the enumerator for every flavor and
// type pair. ok == false implies enumerate is empty, checked at
// maxLen = |tgt|+2 with no caps and at a longer, pin-richer bound (any
// tighter bound explores a prefix of the same BFS), and at
// maxLen = |tgt|+2 with no candidate or expansion cap ok == true
// implies it is non-empty.
func TestReachMatchesEnumerate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	recursive := 0
	for trial := 0; trial < 40; trial++ {
		tgt := randomTarget(r)
		if tgt.IsRecursive() {
			recursive++
		}
		rc := newReach(tgt, nil)
		tight := newEnumerator(tgt, tgt.Size()+2, math.MaxInt, math.MaxInt, 2, newSearchCache(false))
		// A longer, pin-richer enumeration, its BFS capped to stay small.
		wide := newEnumerator(tgt, 2*tgt.Size()+4, math.MaxInt, 1<<12, 3, newSearchCache(false))
		for _, from := range tgt.Types {
			okSTR := rc.ok(from, "", flavorSTR)
			if got := len(tight.strCandidates(from)) > 0; got != okSTR {
				t.Errorf("trial %d: STR from %s: closure %v, enumerate non-empty %v\n%s", trial, from, okSTR, got, tgt)
			}
			if !okSTR && len(wide.strCandidates(from)) > 0 {
				t.Errorf("trial %d: STR from %s: closure rules out a path the wide enumeration finds\n%s", trial, from, tgt)
			}
			for _, to := range tgt.Types {
				for _, fl := range []flavor{flavorAND, flavorOR, flavorSTAR} {
					ok := rc.ok(from, to, fl)
					if got := len(tight.paths(from, to, fl)) > 0; got != ok {
						t.Errorf("trial %d: flavor %d %s→%s: closure %v, enumerate non-empty %v\n%s", trial, fl, from, to, ok, got, tgt)
					}
					if !ok && len(wide.paths(from, to, fl)) > 0 {
						t.Errorf("trial %d: flavor %d %s→%s: closure rules out a path the wide enumeration finds\n%s", trial, fl, from, to, tgt)
					}
				}
			}
		}
	}
	if recursive < 10 {
		t.Fatalf("only %d of 40 generated targets are recursive", recursive)
	}
}

// TestExactDeadDomainExhausted: when the filter empties a domain, the
// search proves there is no embedding at restart 0 without taking a
// step, and the ledger charges the pruned candidates to unreachable.
func TestExactDeadDomainExhausted(t *testing.T) {
	// B is str-typed, but no target type has text below it.
	src := dtd.MustNew("A",
		dtd.D("A", dtd.Concat("B")),
		dtd.D("B", dtd.Str()))
	tgt := dtd.MustNew("R",
		dtd.D("R", dtd.Concat("S")),
		dtd.D("S", dtd.Empty()))
	sp := newLambdaSpace(src, tgt, embedding.UniformSim(src, tgt), nil)
	if !sp.dead || sp.pruned.LambdaEmpty != 0 {
		t.Fatalf("filter left a live space: %v", sp.cands)
	}
	res, err := Find(src, tgt, nil, Options{Heuristic: Exact, Explain: true})
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
	if res.Rejections.Unreachable == 0 || res.Rejections.LambdaEmpty != 0 {
		t.Errorf("rejections = %+v, want unreachable and no lambda_empty", res.Rejections)
	}
}

// TestLambdaSpaceKeepsAttOrder: the filter only removes candidates; the
// survivors keep their att order and the root maps to the target root.
func TestLambdaSpaceKeepsAttOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	base := workload.MustSyntheticDTD(r, 30)
	nc := workload.Noise(base, workload.NoiseLevel(0.2), r)
	att := match.Synthetic(base, nc.DTD, nc.Truth, match.SyntheticOptions{Accuracy: 0.8, Ambiguity: 4}, r)
	sp := newLambdaSpace(base, nc.DTD, att, nil)
	if got := sp.cands[base.Root]; len(got) != 1 || got[0] != nc.DTD.Root {
		t.Fatalf("root candidates = %v", got)
	}
	all := att.AllCandidates()
	for _, a := range base.Types {
		if a == base.Root {
			continue
		}
		j := 0
		for _, b := range sp.cands[a] {
			for j < len(all[a]) && all[a][j] != b {
				j++
			}
			if j == len(all[a]) {
				t.Fatalf("%s: filtered list %v is not a subsequence of %v", a, sp.cands[a], all[a])
			}
		}
		if truth := nc.Truth[a]; !slices.Contains(sp.cands[a], truth) {
			t.Errorf("%s: the ground-truth λ %s was pruned", a, truth)
		}
	}
}

// TestLambdaSpaceLargeTargetUnpruned: past maxReachTypes no closure is
// built; the candidate table is left unfiltered, the forward check
// admits everything, and the search still finds embeddings.
func TestLambdaSpaceLargeTargetUnpruned(t *testing.T) {
	src := dtd.MustNew("A",
		dtd.D("A", dtd.Concat("B")),
		dtd.D("B", dtd.Empty()))
	defs := []dtd.Def{dtd.D("R", dtd.Concat("B")), dtd.D("B", dtd.Empty())}
	for i := len(defs); i <= maxReachTypes; i++ {
		defs = append(defs, dtd.D(fmt.Sprintf("f%d", i), dtd.Empty()))
	}
	tgt := dtd.MustNew("R", defs...)
	sp := newLambdaSpace(src, tgt, embedding.UniformSim(src, tgt), nil)
	if sp.reach != nil {
		t.Fatalf("closure built for %d target types", tgt.Size())
	}
	if got := len(sp.cands["B"]); got != tgt.Size() || sp.dead || sp.pruned.Unreachable != 0 {
		t.Fatalf("unpruned table: %d candidates for B (want %d), dead=%v, pruned=%+v",
			got, tgt.Size(), sp.dead, sp.pruned)
	}
	if !sp.reach.ok("f3", "R", flavorOR) {
		t.Error("a nil closure ruled out a path")
	}
	res, err := Find(src, tgt, nil, Options{Heuristic: QualityOrdered})
	if err != nil || res.Embedding == nil {
		t.Fatalf("no embedding without a closure: err=%v", err)
	}
}

// backEdgeChain builds a target of 3k types whose cycles are chained
// through back edges: t_i = (f_i, b_i), f_i = t_{i+1}*, b_i = t_{i-1}*,
// with str-typed ends. Every t_i reaches every other type, so the AND
// rows fill completely, and a closure that iterated edge passes until
// nothing changed would need about k passes.
func backEdgeChain(k int) *dtd.DTD {
	t := func(i int) string { return fmt.Sprintf("t%d", i) }
	defs := []dtd.Def{dtd.D("f", dtd.Str()), dtd.D("b", dtd.Str())}
	for i := 0; i < k; i++ {
		fi, bi := fmt.Sprintf("f%d", i), fmt.Sprintf("b%d", i)
		defs = append(defs, dtd.D(t(i), dtd.Concat(fi, bi)))
		next, prev := "f", "b"
		if i+1 < k {
			next = t(i + 1)
		}
		if i > 0 {
			prev = t(i - 1)
		}
		defs = append(defs, dtd.D(fi, dtd.Star(next)), dtd.D(bi, dtd.Star(prev)))
	}
	return dtd.MustNew(t(0), defs...)
}

// TestLambdaSpaceStops: the closure build and the filter poll stop at
// least once per target type and flavor, and give up the moment it
// reports true.
func TestLambdaSpaceStops(t *testing.T) {
	src := workload.MustSyntheticDTD(rand.New(rand.NewSource(5)), 20)
	tgt := backEdgeChain(40)
	att := embedding.UniformSim(src, tgt)
	polls := 0
	if sp := newLambdaSpace(src, tgt, att, func() bool { polls++; return false }); sp == nil || sp.reach == nil {
		t.Fatal("no space built without a stop")
	}
	if polls < 4*tgt.Size() {
		t.Fatalf("%d polls for %d target types, want at least one per type and flavor", polls, tgt.Size())
	}
	for _, at := range []int{1, tgt.Size(), 3 * tgt.Size(), 4*tgt.Size() + 1, polls} {
		calls := 0
		stop := func() bool { calls++; return calls >= at }
		if sp := newLambdaSpace(src, tgt, att, stop); sp != nil {
			t.Errorf("stop at poll %d of %d: got a space, want nil", at, polls)
		}
		if calls != at {
			t.Errorf("stop at poll %d: polled %d times, want the build abandoned at once", at, calls)
		}
	}
}

// expiringCtx passes FindCtx's up-front check, then reports its deadline
// exceeded from the first poll on, as a deadline that fires during the
// closure build would.
type expiringCtx struct {
	context.Context
	polled atomic.Bool
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *expiringCtx) Done() <-chan struct{} {
	c.polled.Store(true)
	return closedDone
}

func (c *expiringCtx) Err() error {
	if c.polled.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

// TestFindCtxDeadlineDuringClosure: on a back-edge chain target at the
// closure's size cap, a deadline that fires while the closure is built
// ends the search with ErrDeadline before any step, within milliseconds.
func TestFindCtxDeadlineDuringClosure(t *testing.T) {
	src := dtd.MustNew("A",
		dtd.D("A", dtd.Concat("B", "C")),
		dtd.D("B", dtd.Str()),
		dtd.D("C", dtd.Str()))
	tgt := backEdgeChain((maxReachTypes - 2) / 3)
	for _, h := range []Heuristic{Random, IndepSet, Exact} {
		ctx := &expiringCtx{Context: context.Background()}
		start := time.Now()
		res, err := FindCtx(ctx, src, tgt, nil, Options{Heuristic: h})
		elapsed := time.Since(start)
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("%v: err = %v, want ErrDeadline", h, err)
		}
		if res == nil || res.Embedding != nil || res.Exhausted || res.Steps != 0 {
			t.Fatalf("%v: result %+v, want no progress", h, res)
		}
		if elapsed > 2*time.Second {
			t.Errorf("%v: took %s to honor the deadline", h, elapsed)
		}
	}
}

// spaceSink keeps BenchmarkLambdaSpace's result live.
var spaceSink *lambdaSpace

// BenchmarkLambdaSpace measures the per-search closure and filter build
// on synthetic 20%-noise pairs of the embed benchmark's two sizes, and
// near the closure's size cap on a back-edge chain target under the
// unrestricted matrix, where every domain holds every target type.
func BenchmarkLambdaSpace(b *testing.B) {
	for _, size := range []int{80, 160} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(size)))
			base := workload.MustSyntheticDTD(r, size)
			nc := workload.Noise(base, workload.NoiseLevel(0.2), r)
			att := match.Synthetic(base, nc.DTD, nc.Truth, match.SyntheticOptions{Accuracy: 1, Ambiguity: 2}, r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spaceSink = newLambdaSpace(base, nc.DTD, att, nil)
			}
		})
	}
	b.Run("chain", func(b *testing.B) {
		src := workload.MustSyntheticDTD(rand.New(rand.NewSource(80)), 80)
		tgt := backEdgeChain((maxReachTypes - 2) / 3)
		att := embedding.UniformSim(src, tgt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if spaceSink = newLambdaSpace(src, tgt, att, nil); spaceSink.reach == nil {
				b.Fatal("no closure at the cap")
			}
		}
	})
}
