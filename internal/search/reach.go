package search

import (
	"math/bits"
	"slices"

	"repro/internal/dtd"
	"repro/internal/embedding"
)

// reach is the path-feasibility closure of a target schema graph: for
// each flavor, one bitset row per target type whose bit t is set when a
// path of that flavor leads from the row's type to type t. It is the
// cheap fragment of schema-aware path satisfiability, computed with no
// length, candidate or expansion bound, so ok(from, to, fl) == false
// means enumerate must return nothing under any bounds: a dead λ choice
// costs one bit probe instead of a BFS.
//
// The flavors mirror enumerator.accepts:
//
//   - AND: at least one edge, no OR edge;
//   - OR: at least one OR edge, no STAR edge;
//   - STAR: at least one STAR edge, no OR edge;
//   - STR: the type is str-typed, or an AND path reaches a str type.
type reach struct {
	idx   map[string]int
	words int
	// rows[fl] holds len(idx) rows of words uint64s each, for flavorAND,
	// flavorOR and flavorSTAR.
	rows [3][]uint64
	str  []bool
}

// maxReachTypes bounds the targets a closure is built for: its rows
// take 4·n² bits, 32 MiB at this size. Larger targets are searched
// without pruning.
const maxReachTypes = 1 << 13

// newReach builds the closure of tgt, or returns nil when tgt has more
// than maxReachTypes types or when stop (nil for never) reports true
// during the build, which polls it once per type and flavor. Each
// flavor's rows are the least fixpoint of a few set inclusions over the
// schema edges, filled in one pass over the strongly connected
// components, so the build costs O(E·n/64) word operations whatever the
// shape of the target's cycles.
func newReach(tgt *dtd.DTD, stop func() bool) *reach {
	n := len(tgt.Types)
	if n > maxReachTypes {
		return nil
	}
	w := (n + 63) / 64
	r := &reach{idx: make(map[string]int, n), words: w, str: make([]bool, n)}
	for i, t := range tgt.Types {
		r.idx[t] = i
	}
	type arc struct {
		to   int
		kind uint8 // 1 << dtd.EdgeKind
	}
	succ := make([][]arc, n)
	for i, t := range tgt.Types {
		prod := tgt.Prods[t]
		kind := uint8(1 << dtd.EdgeAND)
		switch prod.Kind {
		case dtd.KindDisj:
			kind = 1 << dtd.EdgeOR
		case dtd.KindStar:
			kind = 1 << dtd.EdgeSTAR
		}
		for _, c := range prod.Children {
			succ[i] = append(succ[i], arc{r.idx[c], kind})
		}
	}
	row := func(rows []uint64, i int) bitset { return rows[i*w : (i+1)*w] }
	halted := false
	halt := func() bool {
		halted = halted || (stop != nil && stop())
		return halted
	}
	// Tarjan's algorithm state, reset by each closeRows.
	num := make([]int, n) // DFS number + 1; 0 while unvisited
	low := make([]int, n)
	onStack := make([]bool, n)
	var stack []int
	// closeRows fills rows with the least fixpoint of
	//   rows[x] ⊇ {y} ∪ via[y]  for each edge x→y of a kind in fresh
	//                           (via nil adds {y} alone),
	//   rows[x] ⊇ rows[y]       for each edge x→y of a kind in carry.
	// The members of a strongly connected component of the carry edges
	// have equal rows, and Tarjan's algorithm finishes a component only
	// after every component its carry edges lead to, so each component's
	// row is filled once, from complete rows.
	closeRows := func(rows, via []uint64, fresh, carry uint8) {
		clear(num)
		next := 0
		var strong func(x int)
		strong = func(x int) {
			next++
			num[x], low[x] = next, next
			stack = append(stack, x)
			onStack[x] = true
			for _, a := range succ[x] {
				if carry&a.kind == 0 {
					continue
				}
				if num[a.to] == 0 {
					strong(a.to)
					if halted {
						return
					}
					low[x] = min(low[x], low[a.to])
				} else if onStack[a.to] {
					low[x] = min(low[x], num[a.to])
				}
			}
			if low[x] != num[x] {
				return
			}
			k := len(stack) - 1
			for stack[k] != x {
				k--
			}
			members := stack[k:]
			rx := row(rows, x)
			for _, m := range members {
				if halt() {
					return
				}
				for _, a := range succ[m] {
					if fresh&a.kind != 0 {
						rx.set(a.to)
						if via != nil {
							rx.or(row(via, a.to))
						}
					}
					if carry&a.kind != 0 {
						// A member's row is still empty (or is rx):
						// harmless; any other row is complete.
						rx.or(row(rows, a.to))
					}
				}
			}
			for _, m := range members {
				onStack[m] = false
				if m != x {
					copy(row(rows, m), rx)
				}
			}
			stack = stack[:k]
		}
		for x := 0; x < n && !halted; x++ {
			if num[x] == 0 {
				strong(x)
			}
		}
		stack = stack[:0]
	}
	const and, or, star = 1 << dtd.EdgeAND, 1 << dtd.EdgeOR, 1 << dtd.EdgeSTAR
	andRows := make([]uint64, n*w)
	closeRows(andRows, nil, and|star, and|star)
	// OR paths: AND edges, then an OR edge, then any AND/OR path.
	anyOR := make([]uint64, n*w)
	closeRows(anyOR, nil, and|or, and|or)
	orRows := make([]uint64, n*w)
	closeRows(orRows, anyOR, or, and)
	// STAR paths: AND edges, then a STAR edge, then any AND path.
	starRows := make([]uint64, n*w)
	closeRows(starRows, andRows, star, and)
	if halted {
		return nil
	}
	r.rows = [3][]uint64{flavorAND: andRows, flavorOR: orRows, flavorSTAR: starRows}

	strMask := make(bitset, w)
	for i, t := range tgt.Types {
		if tgt.Prods[t].Kind == dtd.KindStr {
			strMask.set(i)
		}
	}
	for i := range r.str {
		r.str[i] = strMask.test(i) || r.row(flavorAND, i).intersects(strMask)
	}
	return r
}

// row returns the closure row of target type i for a path flavor.
func (r *reach) row(fl flavor, i int) bitset {
	return r.rows[fl][i*r.words : (i+1)*r.words]
}

// ok reports whether some path of flavor fl leads from target type from
// to target type to (for flavorSTR, to is ignored: the path ends at any
// str-typed element or is the bare text() of a str-typed from). A nil
// closure admits every path.
func (r *reach) ok(from, to string, fl flavor) bool {
	if r == nil {
		return true // no closure: nothing is ruled out
	}
	i, found := r.idx[from]
	if !found {
		return false
	}
	if fl == flavorSTR {
		return r.str[i]
	}
	j, found := r.idx[to]
	return found && r.row(fl, i).test(j)
}

// prodFlavor is the path flavor a source production demands of the
// paths to its children (flavorSTR for the str pseudo-edge).
func prodFlavor(k dtd.Kind) flavor {
	switch k {
	case dtd.KindDisj:
		return flavorOR
	case dtd.KindStar:
		return flavorSTAR
	case dtd.KindStr:
		return flavorSTR
	}
	return flavorAND
}

// lambdaSpace is the search-wide λ domain: the att-ordered candidate
// list per source type, filtered to arc consistency against the target
// closure. It is built once per FindCtx and shared read-only by every
// restart and worker.
type lambdaSpace struct {
	reach *reach // nil for targets too large for a closure
	cands map[string][]string
	// dead reports that the filter emptied some domain, which proves no
	// embedding exists.
	dead bool
	// pruned holds the filter's rejections: LambdaEmpty counts source
	// types the matrix offered no target type, Unreachable the
	// candidates the filter removed. They are charged to restart 0.
	pruned Rejections
}

// newLambdaSpace builds the λ-candidate table — att-ordered target
// types per source type, the root mapped to the target root alone — and
// filters it to arc consistency when the target is small enough for a
// closure (see filter). The closure build and the filter poll stop (nil
// for never); once it reports true they are abandoned and
// newLambdaSpace returns nil.
func newLambdaSpace(src, tgt *dtd.DTD, att *embedding.SimMatrix, stop func() bool) *lambdaSpace {
	halted := false
	halt := func() bool {
		halted = halted || (stop != nil && stop())
		return halted
	}
	sp := &lambdaSpace{reach: newReach(tgt, halt), cands: att.AllCandidates()}
	if halted {
		return nil
	}
	sp.cands[src.Root] = nil
	if att.Get(src.Root, tgt.Root) > 0 {
		sp.cands[src.Root] = []string{tgt.Root}
	}
	for _, a := range src.Types {
		// Keep only actual target types.
		kept := sp.cands[a][:0]
		for _, b := range sp.cands[a] {
			if _, ok := tgt.Prods[b]; ok {
				kept = append(kept, b)
			}
		}
		sp.cands[a] = kept
		if len(kept) == 0 {
			sp.pruned.LambdaEmpty++
		}
	}
	if sp.reach != nil {
		if sp.filter(src, halt); halted {
			return nil
		}
	}
	for _, a := range src.Types {
		if len(sp.cands[a]) == 0 {
			sp.dead = true
		}
	}
	return sp
}

// filter removes the candidates that are not arc consistent, counting
// them as Unreachable: a candidate b of source type a survives only if
//
//   - every edge a→c has a candidate of c reachable from b in a's
//     flavor (b itself for a self edge),
//   - every parent edge p→a has a candidate of p that reaches b, and
//   - b has STR reach when a is str-typed.
//
// Every λ assignment the search can complete uses surviving candidates
// only, so the filter is sound: an emptied domain proves the pair is not
// embeddable. The survivors keep their att order. The worklist polls
// halt once per candidate revised and returns as soon as it reports
// true, leaving the table half filtered.
func (sp *lambdaSpace) filter(src *dtd.DTD, halt func() bool) {
	r := sp.reach
	// The source schema by index: each type's flavor, its distinct
	// children other than itself, whether it is its own child, and its
	// distinct parents other than itself.
	m := len(src.Types)
	sidx := make(map[string]int, m)
	for i, a := range src.Types {
		sidx[a] = i
	}
	type node struct {
		fl            flavor
		kids, parents []int
		self          bool
	}
	nodes := make([]node, m)
	for i, a := range src.Types {
		prod := src.Prods[a]
		nodes[i].fl = prodFlavor(prod.Kind)
		for _, c := range prod.Children {
			j := sidx[c]
			switch {
			case j == i:
				nodes[i].self = true
			case !slices.Contains(nodes[i].kids, j):
				nodes[i].kids = append(nodes[i].kids, j)
				nodes[j].parents = append(nodes[j].parents, i)
			}
		}
	}
	// dom(a) is a's domain as a bitset over target type indices.
	w := r.words
	doms := make([]uint64, m*w)
	dom := func(a int) bitset { return doms[a*w : (a+1)*w] }
	for i, a := range src.Types {
		for _, b := range sp.cands[a] {
			dom(i).set(r.idx[b])
		}
	}
	supported := func(a, b int) bool {
		nd := &nodes[a]
		if nd.fl == flavorSTR {
			return r.str[b]
		}
		row := r.row(nd.fl, b)
		if nd.self && !row.test(b) {
			return false
		}
		for _, c := range nd.kids {
			if !row.intersects(dom(c)) {
				return false
			}
		}
		return true
	}
	// image(p) is every type some candidate of p reaches in p's flavor,
	// recomputed only after dom(p) has shrunk.
	images := make([]uint64, m*w)
	imageOK := make([]bool, m)
	image := func(p int) bitset {
		im := bitset(images[p*w : (p+1)*w])
		if !imageOK[p] {
			clear(im)
			dp := dom(p)
			for x := range dp {
				for bs := dp[x]; bs != 0; bs &= bs - 1 {
					im.or(r.row(nodes[p].fl, x*64+bits.TrailingZeros64(bs)))
				}
			}
			imageOK[p] = true
		}
		return im
	}
	// revise drops a's unsupported candidates and reports whether any
	// went.
	revise := func(a int) bool {
		d := dom(a)
		changed := false
		for x := range d {
			for bs := d[x]; bs != 0; bs &= bs - 1 {
				if halt() {
					return false
				}
				if bit := bits.TrailingZeros64(bs); !supported(a, x*64+bit) {
					d[x] &^= 1 << uint(bit)
					changed = true
				}
			}
		}
		for _, p := range nodes[a].parents {
			im := image(p)
			for x := range d {
				if d[x]&^im[x] != 0 {
					d[x] &= im[x]
					changed = true
				}
			}
		}
		if changed {
			imageOK[a] = false
		}
		return changed
	}
	// A shrunk domain can take the support of its parents' and
	// children's candidates with it, so they are revised again (AC-3).
	queue := make([]int, m)
	queued := make([]bool, m)
	for i := range queue {
		queue[i], queued[i] = i, true
	}
	for len(queue) > 0 {
		if halt() {
			return
		}
		a := queue[0]
		queue, queued[a] = queue[1:], false
		if !revise(a) {
			continue
		}
		for _, ns := range [2][]int{nodes[a].kids, nodes[a].parents} {
			for _, c := range ns {
				if !queued[c] {
					queue, queued[c] = append(queue, c), true
				}
			}
		}
	}
	for i, a := range src.Types {
		kept := sp.cands[a][:0]
		for _, b := range sp.cands[a] {
			if dom(i).test(r.idx[b]) {
				kept = append(kept, b)
			} else {
				sp.pruned.Unreachable++
			}
		}
		sp.cands[a] = kept
	}
}
