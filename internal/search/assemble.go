package search

import (
	"sort"

	"repro/internal/embedding"
	"repro/internal/xpath"
)

// localOption is one local mapping (§5.1): a λ assignment for one
// source type and its children, with valid local paths, weighted by the
// summed att scores.
type localOption struct {
	owner  string
	lambda map[string]string
	paths  map[embedding.EdgeRef]xpath.Path
	weight float64
}

// conflicts reports whether two local mappings disagree on a shared
// type.
func (o *localOption) conflicts(assign map[string]string) bool {
	for a, b := range o.lambda {
		if cur, ok := assign[a]; ok && cur != b {
			return true
		}
	}
	return false
}

// assembleIndepSet implements the independent-set style assembly: it
// enumerates up to LocalOptions local mappings per source production
// (randomly sampling λ choices), then greedily selects one option per
// production — fewest-options first, highest weight first — rejecting
// options that conflict with the partial assignment. A maximal
// consistent selection covering every production is a valid embedding.
func (s *searcher) assembleIndepSet() *embedding.Embedding {
	order := s.order()
	options := make([][]*localOption, len(order))
	for i, a := range order {
		options[i] = s.localOptions(a)
		if len(options[i]) == 0 {
			if s.rec != nil {
				s.rec.outcome = OutcomeNoOptions
			}
			return nil
		}
	}
	// Productions with the fewest options are the most constrained;
	// assign them first.
	idx := make([]int, len(order))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return len(options[idx[x]]) < len(options[idx[y]]) })

	assign := map[string]string{s.src.Root: s.tgt.Root}
	chosen := make([]*localOption, len(order))
	for _, i := range idx {
		if s.canceled() {
			return nil
		}
		s.steps++
		var best *localOption
		for _, o := range options[i] {
			if o.conflicts(assign) {
				if s.rec != nil {
					s.rec.rej.Conflict++
				}
				continue
			}
			if best == nil || o.weight > best.weight {
				best = o
			}
		}
		if best == nil {
			if s.rec != nil {
				s.rec.outcome = OutcomeConflict
			}
			return nil
		}
		chosen[i] = best
		for a, b := range best.lambda {
			assign[a] = b
		}
		if s.rec != nil {
			s.rec.noteDepth(len(assign))
		}
	}
	emb := embedding.New(s.src, s.tgt)
	for a, b := range assign {
		emb.MapType(a, b)
	}
	for _, o := range chosen {
		for ref, p := range o.paths {
			emb.Paths[ref] = p
		}
	}
	if emb.Validate(s.att) != nil {
		if s.rec != nil {
			s.rec.outcome = OutcomeInvalid
		}
		return nil
	}
	return emb
}

// localOptions samples local mappings for the production of a. A
// child candidate the closure rules out from λ(a) is skipped before
// any path work.
func (s *searcher) localOptions(a string) []*localOption {
	prod := s.src.Prods[a]
	fl := prodFlavor(prod.Kind)
	var out []*localOption
	for _, la := range s.candidatesFor(a, true) {
		if len(out) >= s.opts.LocalOptions {
			break
		}
		// Distinct child types needing λ.
		var kids []string
		seen := map[string]bool{}
		for _, c := range prod.Children {
			if !seen[c] && c != a {
				seen[c] = true
				kids = append(kids, c)
			}
		}
		lam := map[string]string{a: la}
		budget := s.opts.LocalOptions
		var rec func(j int)
		rec = func(j int) {
			if len(out) >= s.opts.LocalOptions || budget <= 0 || s.canceled() {
				return
			}
			if j == len(kids) {
				budget--
				local := s.localPathsFor(a, lam)
				if local == nil {
					return
				}
				opt := &localOption{
					owner:  a,
					lambda: map[string]string{},
					paths:  local,
				}
				for k, v := range lam {
					opt.lambda[k] = v
					opt.weight += s.att.Get(k, v)
				}
				out = append(out, opt)
				return
			}
			for _, b := range s.candidatesFor(kids[j], true) {
				if !s.reach.ok(la, b, fl) {
					s.noteUnreachable()
					continue
				}
				lam[kids[j]] = b
				rec(j + 1)
				delete(lam, kids[j])
				if len(out) >= s.opts.LocalOptions || budget <= 0 {
					return
				}
			}
		}
		rec(0)
	}
	return out
}
