package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing: the benchmark records a span around each call it makes into
// a layer package — name "layer.Function", start, end, parent span and
// operation id — keeps the spans in memory and writes them out when
// the run ends. A lane is one goroutine's span stack; the untraced run
// passes a nil *lane, whose methods do nothing.

type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Lane   int    `json:"lane"`
	Start  time.Duration
	End    time.Duration
}

func (s *spanRec) dur() time.Duration { return s.End - s.Start }

func (s *spanRec) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu       sync.Mutex
	lanes    []*lane
	external []spanRec // spans recorded from goroutines the benchmark does not own
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane opens a span stack for one goroutine.
func (t *tracer) lane(name string) *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{tr: t, id: len(t.lanes), name: name}
	t.lanes = append(t.lanes, l)
	return l
}

// recordExternal adds a span measured on a goroutine without a lane
// (the server's handler goroutines), parented by id.
func (t *tracer) recordExternal(name string, parent, op int64, start, end time.Time) {
	s := spanRec{ID: t.ids.Add(1), Parent: parent, Op: op, Name: name, Lane: -1,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	t.mu.Lock()
	t.external = append(t.external, s)
	t.mu.Unlock()
}

// all returns every finished span.
func (t *tracer) all() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]spanRec(nil), t.external...)
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	return out
}

type lane struct {
	tr    *tracer
	id    int
	name  string
	spans []spanRec
	stack []int
	op    int64
}

// beginOp starts a new operation: later spans carry its id.
func (l *lane) beginOp() {
	if l != nil {
		l.op = l.tr.ids.Add(1)
	}
}

// start opens a span and returns its handle for stop.
func (l *lane) start(name, detail string) int {
	if l == nil {
		return -1
	}
	var parent int64
	if n := len(l.stack); n > 0 {
		parent = l.spans[l.stack[n-1]].ID
	}
	l.spans = append(l.spans, spanRec{ID: l.tr.ids.Add(1), Parent: parent, Op: l.op,
		Name: name, Detail: detail, Lane: l.id, Start: time.Since(l.tr.epoch)})
	i := len(l.spans) - 1
	l.stack = append(l.stack, i)
	return i
}

func (l *lane) stop(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = time.Since(l.tr.epoch)
	l.stack = l.stack[:len(l.stack)-1]
}

// currentID is the id of the innermost open span (0 when none).
func (l *lane) currentID() int64 {
	if l == nil || len(l.stack) == 0 {
		return 0
	}
	return l.spans[l.stack[len(l.stack)-1]].ID
}

// traceResult is one measured pass.
type traceResult struct {
	wall    time.Duration
	tracer  *tracer
	runtime runtimeDelta
}

// spans returns the pass's spans named name (all, when name is "").
func (r *traceResult) spans(name string) []spanRec {
	var out []spanRec
	for _, s := range r.tracer.all() {
		if name == "" || s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of the named spans, optionally restricted
// to one detail value.
func (r *traceResult) total(name, detail string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range r.spans(name) {
		if detail == "" || s.Detail == detail {
			d += s.dur()
			n++
		}
	}
	return d, n
}

// accounting splits the time of a set of lanes into per-layer self
// times plus what no span covers.
type accounting struct {
	total time.Duration // wall x lanes; 0 when unknown
	self  map[string]time.Duration
	calls map[string]int
}

func (a accounting) attributed() time.Duration {
	var d time.Duration
	for _, v := range a.self {
		d += v
	}
	return d
}

func (a accounting) unattributedShare() float64 {
	if a.total <= 0 {
		return 0
	}
	return float64(a.total-a.attributed()) / float64(a.total)
}

// table renders the self-time table, largest layer first.
func (a accounting) table() []string {
	layers := sortedKeys(a.self)
	sort.SliceStable(layers, func(i, j int) bool { return a.self[layers[i]] > a.self[layers[j]] })
	lines := []string{fmt.Sprintf("  %-12s %12s %8s %8s", "layer", "self_ms", "share", "calls")}
	base := a.total
	if base <= 0 {
		base = a.attributed()
	}
	for _, l := range layers {
		lines = append(lines, fmt.Sprintf("  %-12s %12.3f %7.2f%% %8d", l, ms(a.self[l]), pct(a.self[l], base), a.calls[l]))
	}
	if a.total > 0 {
		un := a.total - a.attributed()
		lines = append(lines, fmt.Sprintf("  %-12s %12.3f %7.2f%% %8s", "unattributed", ms(un), pct(un, base), "-"))
	}
	return lines
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func pct(d, base time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(base)
}

// selfTimes computes each span's duration minus the part of it that
// its children cover.
func selfTimes(spans []spanRec) map[int64]time.Duration {
	children := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

func accountSpans(spans []spanRec, total time.Duration) accounting {
	a := accounting{total: total, self: map[string]time.Duration{}, calls: map[string]int{}}
	self := selfTimes(spans)
	for _, s := range spans {
		a.self[s.layer()] += self[s.ID]
		a.calls[s.layer()]++
	}
	return a
}

// account attributes the pass's wall time: every lane that recorded a
// span was busy for the whole pass.
func (r *traceResult) account() accounting {
	spans := r.tracer.all()
	lanes := map[int]bool{}
	for _, s := range spans {
		if s.Lane >= 0 {
			lanes[s.Lane] = true
		}
	}
	return accountSpans(spans, r.wall*time.Duration(len(lanes)))
}

// accountLanes sums self time per layer over the given lanes only.
func accountLanes(ls ...*lane) accounting {
	var spans []spanRec
	for _, l := range ls {
		spans = append(spans, l.spans...)
	}
	return accountSpans(spans, 0)
}

// writeChrome writes the pass's spans (pid 1) and the set-up and probe
// spans (pid 2) as Chrome trace_event JSON.
func (t *tracer) writeChrome(path string, other *tracer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for pid, tr := range []*tracer{t, other} {
		tr.mu.Lock()
		for _, l := range tr.lanes {
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: pid + 1, Tid: l.id + 1,
				Args: map[string]any{"name": l.name}})
		}
		tr.mu.Unlock()
		for _, s := range tr.all() {
			events = append(events, event{Name: s.Name, Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: pid + 1, Tid: s.Lane + 1,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "detail": s.Detail}})
		}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// meanOf is the mean duration in ms of the tracer's spans named name.
func meanOf(t *tracer, name string) float64 {
	var d time.Duration
	n := 0
	for _, s := range t.all() {
		if s.Name == name {
			d += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

// sumOf totals the durations of the tracer's spans named name.
func sumOf(t *tracer, name string) time.Duration {
	var d time.Duration
	for _, s := range t.all() {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}
