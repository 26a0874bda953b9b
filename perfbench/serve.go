package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/embedding"
	"repro/internal/server"
	"repro/internal/translate"
	"repro/internal/xpath"
)

// The serve workload: an in-process xse-serve on loopback, driven in a
// closed loop by one client over a seeded request script that is
// mostly forward migration, plus inverse migration, translation
// (repeated and fresh queries) and quality-heuristic embedding
// (repeated and fresh seeds) over the four corpus pairs. It is the
// only workload where admission, the JSON codec and the artifact and
// translation caches do work; the hit/miss mix lets a cache change
// show.
//
// One client, not two: on the two cores of the reference host two
// clients and the server's handlers contend for the processors, and
// which requests of the seeded script happened to overlap moved the
// script's wall time by 18% between seeds.
const (
	serveClients   = 1
	serveBytes     = 150_000 // source bytes of small documents per pair
	repeatQueries  = 4       // generated queries per pair sent again and again
	serveThreshold = 0.0     // lexical threshold at which all four pairs embed
)

type reqKind int

const (
	kMigrate reqKind = iota
	kInvert
	kTranslate
	kTranslateFresh
	kEmbed
	kEmbedFresh
)

var routeOf = map[reqKind]string{kMigrate: "migrate", kInvert: "invert", kTranslate: "translate",
	kTranslateFresh: "translate", kEmbed: "embed", kEmbedFresh: "embed"}

type scriptReq struct {
	kind reqKind
	pair int
	item int    // document or query index
	body []byte // prepared body; nil for fresh requests
	want string // expected document body or automaton size
}

type servePair struct {
	*schemaPair
	embText string
	docs    []string // source documents
	fwd     []string // their forward migrations
	queries []string
	sizes   []int // automaton size of each query
}

// deferredCheck is a response whose check needs a direct translation
// or validation, done after the run.
type deferredCheck struct {
	kind  reqKind
	pair  int
	query string
	body  []byte
}

type serveWorkload struct {
	seed   int64
	pairs  []*servePair
	script []scriptReq

	srv     *server.Server
	httpSrv *http.Server
	handler *timedHandler
	client  *http.Client
	base    string

	passNo   int
	mu       sync.Mutex
	deferred []deferredCheck
	wrong    int
	cached   int
	answered int
	bytes    int64
	shed     int
}

func (w *serveWorkload) opsLabel() string { return "request" }

// timedHandler wraps Server.Handler(): while tracing it records the
// time each request spends inside the handler as a child span of the
// client's request span.
type timedHandler struct {
	h  http.Handler
	tr atomic.Pointer[tracer]
}

func (t *timedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	if tr == nil {
		t.h.ServeHTTP(rw, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(rw, r)
	end := time.Now()
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	op, _ := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64)
	tr.recordExternal("server.Handler", parent, op, start, end)
}

func (w *serveWorkload) setup(cfg runConfig, tl *lane) error {
	w.seed = cfg.seed
	pairs, err := loadPairs(tl)
	if err != nil {
		return err
	}
	if err := embedPairs(tl, pairs); err != nil {
		return err
	}
	ctx := context.Background()
	for pi, p := range pairs {
		sp := tl.start("embedding.CompileStream", p.name)
		prog, err := p.emb.CompileStream()
		tl.stop(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		trl, err := translate.New(p.emb)
		if err != nil {
			return err
		}
		s := &servePair{schemaPair: p, embText: p.emb.Marshal()}
		_, texts, err := docSet(tl, p.src, cfg.seed, p.name+"/serve", unitBytes, smallNodes, 0, 0, serveBytes)
		if err != nil {
			return err
		}
		for _, text := range texts {
			var out strings.Builder
			sp := tl.start("embedding.StreamProgram.Run", p.name)
			_, err = prog.Run(ctx, bytes.NewReader(text), &out, embedding.StreamOptions{})
			tl.stop(sp)
			if err != nil {
				return err
			}
			s.docs = append(s.docs, string(text))
			s.fwd = append(s.fwd, out.String())
		}
		s.queries = append(s.queries, p.queryTexts...)
		r := rand.New(rand.NewSource(subSeed(cfg.seed, p.name+"/serve-queries", pi)))
		for i := 0; i < repeatQueries; i++ {
			s.queries = append(s.queries, xpath.String(xpath.RandomQuery(r, p.src, xpath.GenOptions{TranslatableOnly: true, MaxDepth: 3})))
		}
		for _, q := range s.queries {
			a, err := trl.TranslatePath(q)
			if err != nil {
				return fmt.Errorf("%s: %q: %w", p.name, q, err)
			}
			s.sizes = append(s.sizes, a.Size())
		}
		w.pairs = append(w.pairs, s)
	}
	if err := w.buildScript(); err != nil {
		return err
	}
	if err := w.start(tl); err != nil {
		return err
	}
	// Warm-up: every repeated request once, so the timed passes see
	// warm artifact and translation caches for them.
	rec := &recorder{}
	w.passNo = -1
	return w.drive(rec, nil, dedupWarm(w.script))
}

func dedupWarm(script []scriptReq) []scriptReq {
	seen := map[string]bool{}
	var out []scriptReq
	for _, r := range script {
		if r.body == nil {
			continue
		}
		k := fmt.Sprintf("%d/%d/%d", r.kind, r.pair, r.item)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// scriptMix is the number of requests of each kind per pair in one
// pass. The counts are fixed, and the requests of a kind take the
// pair's documents and queries in turn, so that every seed sends the
// same mix and the same bytes; the seed picks the documents, the
// queries and the order.
var scriptMix = []struct {
	kind reqKind
	n    int
}{{kMigrate, 60}, {kInvert, 10}, {kTranslate, 8}, {kTranslateFresh, 7}, {kEmbed, 8}, {kEmbedFresh, 7}}

func (w *serveWorkload) buildScript() error {
	r := rand.New(rand.NewSource(subSeed(w.seed, "serve-script", 0)))
	for pi, p := range w.pairs {
		for _, m := range scriptMix {
			for k := 0; k < m.n; k++ {
				req := scriptReq{kind: m.kind, pair: pi}
				var err error
				switch m.kind {
				case kMigrate:
					req.item = k * len(p.docs) / m.n
					req.want = p.fwd[req.item]
					req.body, err = p.migrateBody(p.docs[req.item], false)
				case kInvert:
					req.item = k * len(p.docs) / m.n
					req.want = p.docs[req.item]
					req.body, err = p.migrateBody(p.fwd[req.item], true)
				case kTranslate:
					req.item = k % len(p.queries)
					req.want = strconv.Itoa(p.sizes[req.item])
					req.body, err = p.translateBody(p.queries[req.item])
				case kEmbed:
					req.body, err = p.embedBody(1)
				default: // fresh requests: item numbers them within the pass
					req.item = len(w.script)
				}
				if err != nil {
					return err
				}
				w.script = append(w.script, req)
			}
		}
	}
	r.Shuffle(len(w.script), func(i, j int) { w.script[i], w.script[j] = w.script[j], w.script[i] })
	return nil
}

func (p *servePair) migrateBody(doc string, invert bool) ([]byte, error) {
	req := server.MigrateRequest{Embedding: p.embText, Document: doc, Invert: invert}
	req.SourceDTD, req.TargetDTD = p.srcText, p.tgtText
	return json.Marshal(req)
}

func (p *servePair) translateBody(query string) ([]byte, error) {
	req := server.TranslateRequest{Embedding: p.embText, Query: query}
	req.SourceDTD, req.TargetDTD = p.srcText, p.tgtText
	return json.Marshal(req)
}

func (p *servePair) embedBody(seed int64) ([]byte, error) {
	th := serveThreshold
	req := server.EmbedRequest{Heuristic: "quality", Seed: seed, Threshold: &th}
	req.SourceDTD, req.TargetDTD = p.srcText, p.tgtText
	return json.Marshal(req)
}

// freshBody builds a fresh request: a query or search seed no earlier
// request of the run used, drawn from the pass number and position.
func (w *serveWorkload) freshBody(req scriptReq) ([]byte, string, error) {
	p := w.pairs[req.pair]
	switch req.kind {
	case kTranslateFresh:
		r := rand.New(rand.NewSource(subSeed(w.seed, fmt.Sprintf("fresh-query/%d", w.passNo), req.item)))
		q := xpath.String(xpath.RandomQuery(r, p.src, xpath.GenOptions{TranslatableOnly: true, MaxDepth: 3}))
		raw, err := p.translateBody(q)
		return raw, q, err
	default:
		raw, err := p.embedBody(int64(1_000_000 + (w.passNo+1)*len(w.script) + req.item))
		return raw, "", err
	}
}

func (w *serveWorkload) start(tl *lane) error {
	sp := tl.start("server.New", "")
	w.srv = server.New(server.Config{Addr: "127.0.0.1:0"})
	tl.stop(sp)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.handler = &timedHandler{h: w.srv.Handler()}
	w.httpSrv = &http.Server{Handler: w.handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = w.httpSrv.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}, Timeout: time.Minute}
	return nil
}

func (w *serveWorkload) close() {
	if w.httpSrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx)
	_ = w.httpSrv.Shutdown(ctx)
	w.client.CloseIdleConnections()
}

// pass sends the script once through the closed-loop clients; its work
// is the time of each request.
func (w *serveWorkload) pass(rec *recorder, tl *lane) error {
	w.passNo++
	w.mu.Lock()
	w.cached, w.answered, w.bytes, w.shed = 0, 0, 0, 0
	w.mu.Unlock()
	if tl != nil {
		w.handler.tr.Store(tl.tr)
		defer w.handler.tr.Store(nil)
	}
	return w.drive(rec, tl, w.script)
}

func (w *serveWorkload) drive(rec *recorder, tl *lane, script []scriptReq) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	for c := 0; c < serveClients; c++ {
		var cl *lane
		if tl != nil {
			cl = tl.tr.lane(fmt.Sprintf("client%d", c))
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(script) {
					return
				}
				if err := w.send(rec, cl, i, script[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// send issues one request and checks its body. Transport errors and
// non-2xx statuses count as failed operations, not as run errors.
func (w *serveWorkload) send(rec *recorder, cl *lane, i int, req scriptReq) error {
	body, query := req.body, ""
	if body == nil {
		var err error
		if body, query, err = w.freshBody(req); err != nil {
			return err
		}
	}
	route := routeOf[req.kind]
	path := "/v1/" + route
	if route == "invert" {
		path = "/v1/migrate"
	}
	hreq, err := http.NewRequest(http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	cl.beginOp()
	sp := cl.start("http.Do", route)
	if cl != nil {
		hreq.Header.Set("X-Bench-Span", strconv.FormatInt(cl.currentID(), 10))
		hreq.Header.Set("X-Bench-Op", strconv.FormatInt(cl.op, 10))
	}
	t0 := time.Now()
	resp, err := w.client.Do(hreq)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	cl.stop(sp)
	rec.work(fmt.Sprintf("request/%d", i), d)
	if err != nil {
		fmt.Printf("request %s: %v\n", route, err)
		rec.op(i, d, opFailed)
		return nil
	}
	w.mu.Lock()
	w.bytes += int64(len(body) + len(raw))
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		w.shed++
	}
	w.mu.Unlock()
	if resp.StatusCode/100 != 2 {
		fmt.Printf("request %s: status %d: %s\n", route, resp.StatusCode, bytes.TrimSpace(raw))
		rec.op(i, d, opFailed)
		return nil
	}
	w.verify(req, query, raw)
	rec.op(i, d, opOK)
	return nil
}

// verify checks a 2xx body: migrate bodies against the direct
// StreamProgram.Run output (or the source document for inverse),
// repeated translations against the direct automaton size. Fresh
// translations and all embeddings are checked after the run. A wrong
// body makes the run incorrect.
func (w *serveWorkload) verify(req scriptReq, query string, raw []byte) {
	var resp struct {
		Document      string `json:"document"`
		AutomatonSize int    `json:"automaton_size"`
		Embedding     string `json:"embedding"`
		Cached        bool   `json:"cached"`
	}
	err := json.Unmarshal(raw, &resp)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.answered++
	if resp.Cached {
		w.cached++
	}
	good := err == nil
	switch {
	case !good:
	case req.kind == kMigrate, req.kind == kInvert:
		good = resp.Document == req.want
	case req.kind == kTranslate:
		good = strconv.Itoa(resp.AutomatonSize) == req.want
	default:
		w.deferred = append(w.deferred, deferredCheck{kind: req.kind, pair: req.pair, query: query, body: raw})
	}
	if !good {
		w.wrong++
		fmt.Printf("wrong output: %s request on %s\n", routeOf[req.kind], w.pairs[req.pair].name)
	}
}

// check: wrong bodies seen inline, then every fresh translation's
// automaton size and every embedding's validity.
func (w *serveWorkload) check() (int, error) {
	wrong := w.wrong
	trls := map[int]*translate.Translator{}
	for _, f := range w.deferred {
		p := w.pairs[f.pair]
		var resp struct {
			AutomatonSize int    `json:"automaton_size"`
			Embedding     string `json:"embedding"`
		}
		if err := json.Unmarshal(f.body, &resp); err != nil {
			return 0, err
		}
		if f.kind == kTranslateFresh {
			trl := trls[f.pair]
			if trl == nil {
				var err error
				if trl, err = translate.New(p.emb); err != nil {
					return 0, err
				}
				trls[f.pair] = trl
			}
			a, err := trl.TranslatePath(f.query)
			if err != nil || a.Size() != resp.AutomatonSize {
				fmt.Printf("wrong output: fresh translation of %q on %s\n", f.query, p.name)
				wrong++
			}
			continue
		}
		emb, err := embedding.Unmarshal(resp.Embedding, p.src, p.tgt)
		if err == nil {
			err = emb.Validate(p.att)
		}
		if err != nil {
			fmt.Printf("wrong output: fresh embedding on %s: %v\n", p.name, err)
			wrong++
		}
	}
	return wrong, nil
}

func (w *serveWorkload) report(r *report) {
	counts := map[string]int{}
	for _, req := range w.script {
		counts[routeOf[req.kind]]++
	}
	r.note("script: %d requests per pass by %d clients: %v", len(w.script), serveClients, counts)
	r.note("last pass: %d of %d answers from cached artifacts, %d shed", w.cached, w.answered, w.shed)
}

// metricsCounter reads the named counters from the server's /metrics.
func (w *serveWorkload) metricsCounter(names ...string) (map[string]float64, error) {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		for _, n := range names {
			if v, ok := strings.CutPrefix(line, n+" "); ok {
				f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					return nil, err
				}
				out[n] = f
			}
		}
	}
	return out, nil
}

func (w *serveWorkload) layers(pass *traceResult, probe *lane, out map[string]float64) error {
	setup := probe.tr
	out["dtd.parse_us"] = meanOf(setup, "dtd.Parse") * 1e3
	out["match.lexical_ms"] = meanOf(setup, "match.Lexical")
	out["embedding.compile_stream_us"] = meanOf(setup, "embedding.CompileStream") * 1e3
	out["embedding.stream_ms"] = meanOf(setup, "embedding.StreamProgram.Run")
	for _, p := range w.pairs {
		sp := probe.start("embedding.Validate", p.name)
		err := p.emb.Validate(p.att)
		probe.stop(sp)
		if err != nil {
			return err
		}
	}
	out["embedding.validate_us"] = meanOf(setup, "embedding.Validate") * 1e3

	var client, handler time.Duration
	byRoute := map[string][]float64{}
	for _, s := range pass.spans("") {
		switch s.Name {
		case "http.Do":
			client += s.dur()
			byRoute[s.Detail] = append(byRoute[s.Detail], ms(s.dur()))
		case "server.Handler":
			handler += s.dur()
		}
	}
	for _, route := range []string{"embed", "translate", "migrate", "invert"} {
		sort.Float64s(byRoute[route])
		out["server."+route+"_p50_ms"] = quantile(byRoute[route], 0.5)
	}
	out["server.handler_share"] = ratio(float64(handler), float64(client))
	// The counters below are of the last (traced) pass.
	out["server.artifact_hit_ratio"] = ratio(float64(w.cached), float64(w.answered))
	out["server.body_kb_per_req"] = float64(w.bytes) / 1e3 / float64(len(w.script))
	out["server.shed"] = float64(w.shed)

	// Translation-cache hit ratio over one more pass, read from the
	// server's /metrics.
	names := []string{"xse_translate_cache_hits_total", "xse_translate_cache_misses_total"}
	before, err := w.metricsCounter(names...)
	if err != nil {
		return err
	}
	if err := w.pass(&recorder{}, nil); err != nil {
		return err
	}
	after, err := w.metricsCounter(names...)
	if err != nil {
		return err
	}
	hits := after[names[0]] - before[names[0]]
	misses := after[names[1]] - before[names[1]]
	out["translate.cache_hit_ratio"] = ratio(hits, hits+misses)
	return nil
}
