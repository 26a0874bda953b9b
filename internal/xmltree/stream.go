package xmltree

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"repro/internal/guard"
)

// Streaming front- and back-end for the tree codec: a pull Tokenizer
// that yields the node stream Parse builds its trees from, without
// materializing a Tree, and an Emitter whose output is byte-identical
// to Tree.Write for the same event sequence. Together they let the
// embedding engine apply the instance mapping σd with O(depth) state
// (see internal/embedding/stream.go).

// TokKind discriminates Tok values.
type TokKind uint8

const (
	// TokStart opens an element.
	TokStart TokKind = iota
	// TokText is one PCDATA node (already whitespace-trimmed, exactly
	// as Parse would have stored it).
	TokText
	// TokEnd closes the innermost open element.
	TokEnd
	// TokEOF marks the end of a well-formed document.
	TokEOF
)

func (k TokKind) String() string {
	switch k {
	case TokStart:
		return "start"
	case TokText:
		return "text"
	case TokEnd:
		return "end"
	case TokEOF:
		return "eof"
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

// Tok is one node-stream event. Name is set for TokStart/TokEnd, Text
// for TokText.
type Tok struct {
	Kind TokKind
	Name string
	Text string
}

// TokenizerStats reports resource usage after (or during) a scan.
type TokenizerStats struct {
	Tokens     int64 // events returned (start+text+end)
	Nodes      int   // nodes counted against guard.Limits.MaxNodes
	MaxDepth   int   // deepest open-element nesting observed
	InputBytes int64 // raw bytes consumed from the reader
}

// Tokenizer is a pull scanner over an XML document, and the only XML
// decoder in the package: Parse builds its trees from this node
// stream. The byte-level scanning lives in scan.go; Tokenizer turns
// it into events. Character data between two tags (across comments,
// PIs and CDATA sections) is one PCDATA node, whitespace-trimmed, and
// dropped when nothing but whitespace is left. Text outside the root
// element must be whitespace; anything else is an error.
//
// Limits are enforced during the scan: element nesting depth, total
// node count (elements plus emitted text nodes) and raw input bytes
// are all bounded even though no tree is ever built, and the state
// held is the open-element stack plus one refill buffer.
type Tokenizer struct {
	r   io.Reader
	lim guard.Limits
	ctx string // names the consumer in limit errors

	s        *scanState // pooled buffers; nil once the scan is over
	buf      []byte     // s.buf: input bytes buf[pos:end] not yet scanned
	pos, end int
	nread    int   // bytes read from r
	lines    int   // newlines in bytes already dropped from buf
	rerr     error // sticky read error (io.EOF at the end of input)

	stack     []label // open elements (the O(depth) state)
	unread    []Tok   // pushed-back / queued tokens, LIFO
	closeNext bool    // the last start tag was self-closing
	stats     TokenizerStats
	started   bool // past the byte order mark check
	rootSeen  bool
	eof       bool
	err       error // sticky
}

// NewTokenizer starts a scan of r under the default guard.Limits.
func NewTokenizer(r io.Reader) *Tokenizer {
	return NewTokenizerLimits(r, guard.Limits{})
}

// NewTokenizerLimits is NewTokenizer under explicit resource limits
// (zero fields select the defaults; guard.Unlimited() disables the
// checks).
func NewTokenizerLimits(r io.Reader, lim guard.Limits) *Tokenizer {
	return newTokenizer(r, lim, "xmltree: stream")
}

func newTokenizer(r io.Reader, lim guard.Limits, ctx string) *Tokenizer {
	s := getScanState()
	return &Tokenizer{r: r, lim: lim.WithDefaults(), ctx: ctx, s: s, buf: s.buf}
}

// Depth returns the current open-element nesting depth.
func (z *Tokenizer) Depth() int { return len(z.stack) }

// Stats returns resource usage so far.
func (z *Tokenizer) Stats() TokenizerStats {
	s := z.stats
	s.InputBytes = int64(z.nread)
	return s
}

// Unread pushes tok back; the next call to Next returns it. Multiple
// pushed tokens return in LIFO order. Unread does not undo stats or
// limit accounting — the token was already charged when first read.
func (z *Tokenizer) Unread(tok Tok) {
	z.unread = append(z.unread, tok)
}

func (z *Tokenizer) fail(err error) (Tok, error) {
	z.err = err
	z.release()
	return Tok{}, err
}

func (z *Tokenizer) addNode() error {
	z.stats.Nodes++
	return z.lim.CheckNodes(z.stats.Nodes, z.ctx)
}

// flushText converts the character data accumulated since the last
// tag into a TokText, or reports ok=false when it is empty or
// whitespace-only (dropped). Other text outside the root element is
// an error.
func (z *Tokenizer) flushText() (Tok, bool, error) {
	text := z.s.text
	if len(text) == 0 {
		return Tok{}, false, nil
	}
	z.s.text = text[:0]
	text = bytes.TrimSpace(text)
	if len(text) == 0 {
		return Tok{}, false, nil
	}
	if len(z.stack) == 0 {
		return Tok{}, false, z.syntaxError("character data outside the root element")
	}
	if err := z.addNode(); err != nil {
		return Tok{}, false, err
	}
	z.stats.Tokens++
	return Tok{Kind: TokText, Text: string(text)}, true, nil
}

// Next returns the next node-stream event. After TokEOF (or an error)
// every subsequent call returns the same result.
func (z *Tokenizer) Next() (Tok, error) {
	if z.err != nil {
		return Tok{}, z.err
	}
	if n := len(z.unread); n > 0 {
		tok := z.unread[n-1]
		z.unread = z.unread[:n-1]
		return tok, nil
	}
	if z.closeNext {
		z.closeNext = false
		return z.pop(), nil
	}
	if z.eof {
		return Tok{Kind: TokEOF}, nil
	}
	if !z.started {
		z.started = true
		if err := z.skipBOM(); err != nil {
			return z.fail(err)
		}
	}
	for {
		if z.pos >= z.end && !z.fill() {
			if z.rerr != io.EOF {
				return z.fail(z.rerr)
			}
			return z.finish()
		}
		if z.buf[z.pos] != '<' {
			if len(z.s.text) == 0 && z.skipSpace() {
				continue // leading white space is trimmed anyway
			}
			if err := z.scanText(false); err != nil {
				return z.fail(err)
			}
			continue
		}
		z.pos++
		c, ok := z.getc()
		if !ok {
			return z.fail(z.eofErr())
		}
		var err error
		switch c {
		case '/':
			return z.endTag()
		case '?':
			err = z.skipPI()
		case '!':
			err = z.skipBang()
		default:
			z.pos--
			return z.startTag()
		}
		if err != nil {
			return z.fail(err)
		}
	}
}

// startTag scans a start tag (the '<' consumed) and returns its
// TokStart, preceded by any pending text node.
func (z *Tokenizer) startTag() (Tok, error) {
	lab, err := z.elementName()
	if err != nil {
		return z.fail(err)
	}
	empty, err := z.skipAttrs()
	if err != nil {
		return z.fail(err)
	}
	text, hasText, err := z.flushText()
	if err != nil {
		return z.fail(err)
	}
	if err := z.lim.CheckDepth(len(z.stack)+1, z.ctx); err != nil {
		return z.fail(err)
	}
	if err := z.addNode(); err != nil {
		return z.fail(err)
	}
	if !lab.ok {
		return z.fail(fmt.Errorf("xmltree: parse: element name %q is not a valid XML name on its own (namespaced local names like \"ns:%s\" cannot round-trip)", lab.local, lab.local))
	}
	if len(z.stack) == 0 {
		if z.rootSeen {
			return z.fail(fmt.Errorf("xmltree: multiple root elements"))
		}
		z.rootSeen = true
	}
	z.stack = append(z.stack, lab)
	if d := len(z.stack); d > z.stats.MaxDepth {
		z.stats.MaxDepth = d
	}
	z.stats.Tokens++
	z.closeNext = empty
	start := Tok{Kind: TokStart, Name: lab.local}
	if hasText {
		z.Unread(start)
		return text, nil
	}
	return start, nil
}

// endTag scans an end tag (the "</" consumed), closes the innermost
// element and returns its TokEnd, preceded by any pending text node.
func (z *Tokenizer) endTag() (Tok, error) {
	name, err := z.readName()
	if err != nil {
		return z.fail(err)
	}
	if name == nil {
		return z.fail(z.syntaxError("expected element name after </"))
	}
	// The name must repeat the open element's, which was checked.
	if len(z.stack) == 0 || string(name) != z.stack[len(z.stack)-1].qname {
		if err := z.checkQName(name, "</"); err != nil {
			return z.fail(err)
		}
		if len(z.stack) == 0 {
			return z.fail(z.syntaxError("unexpected end element </" + string(name) + ">"))
		}
		return z.fail(z.syntaxError("element <" + z.stack[len(z.stack)-1].qname + "> closed by </" + string(name) + ">"))
	}
	z.space()
	if c, ok := z.getc(); !ok {
		return z.fail(z.eofErr())
	} else if c != '>' {
		return z.fail(z.syntaxError("invalid characters between </" + z.stack[len(z.stack)-1].qname + " and >"))
	}
	text, hasText, err := z.flushText()
	if err != nil {
		return z.fail(err)
	}
	end := z.pop()
	if hasText {
		z.Unread(end)
		return text, nil
	}
	return end, nil
}

// pop closes the innermost open element.
func (z *Tokenizer) pop() Tok {
	name := z.stack[len(z.stack)-1].local
	z.stack = z.stack[:len(z.stack)-1]
	z.stats.Tokens++
	return Tok{Kind: TokEnd, Name: name}
}

// finish handles the end of input: the document must have had one
// root element, now closed, and nothing but whitespace after it.
func (z *Tokenizer) finish() (Tok, error) {
	if len(z.stack) != 0 {
		return z.fail(fmt.Errorf("xmltree: unclosed element %q", z.stack[len(z.stack)-1].local))
	}
	if _, _, err := z.flushText(); err != nil {
		return z.fail(err)
	}
	if !z.rootSeen {
		return z.fail(fmt.Errorf("xmltree: no root element"))
	}
	z.eof = true
	z.release()
	return Tok{Kind: TokEOF}, nil
}

// Emitter serializes a start/text/end event stream as indented XML,
// byte-identical to Tree.Write / Tree.String for the corresponding
// tree. It buffers at most one pending start tag plus one pending text
// node (the lookahead needed to pick the "<a/>", inline "<a>t</a>" or
// block rendering), so its memory is O(depth) regardless of document
// size. Call Flush after the final End.
type Emitter struct {
	w     *bufio.Writer
	depth int
	stack []string

	pendingName string // element started but not yet rendered
	pendingSet  bool
	firstText   string // first text child of the pending element
	textSet     bool

	bytes int64
	err   error // sticky
}

// NewEmitter returns an Emitter writing to w.
func NewEmitter(w io.Writer) *Emitter {
	return &Emitter{w: bufio.NewWriterSize(w, 16<<10)}
}

// Bytes returns the number of bytes written so far (including bytes
// still sitting in the internal buffer).
func (e *Emitter) Bytes() int64 { return e.bytes }

// ws and wb write through the buffer, tracking written bytes for
// Bytes() and keeping the first error.
func (e *Emitter) ws(s string) {
	if e.err != nil {
		return
	}
	n, err := e.w.WriteString(s)
	e.bytes += int64(n)
	e.err = err
}

func (e *Emitter) wb(c byte) {
	if e.err != nil {
		return
	}
	if err := e.w.WriteByte(c); err != nil {
		e.err = err
		return
	}
	e.bytes++
}

// escape writes s with the codec's escaping rules (xmlEscape,
// including the CR → "&#xD;" round-trip rule).
func (e *Emitter) escape(s string) {
	if e.err != nil {
		return
	}
	xmlEscape(emitWriter{e}, s)
}

// emitWriter adapts the Emitter to xmlWriter, counting bytes and
// keeping the first error.
type emitWriter struct{ e *Emitter }

func (w emitWriter) WriteString(s string) (int, error) {
	w.e.ws(s)
	return len(s), w.e.err
}

func (w emitWriter) WriteByte(c byte) error {
	w.e.wb(c)
	return w.e.err
}

// open renders the pending start tag as a block opener (children
// follow on their own lines) and flushes any buffered first text child
// as the first line.
func (e *Emitter) open() {
	e.ws(indentOf(e.depth))
	e.wb('<')
	e.ws(e.pendingName)
	e.ws(">\n")
	e.stack = append(e.stack, e.pendingName)
	e.depth++
	e.pendingSet = false
	if e.textSet {
		e.ws(indentOf(e.depth))
		e.escape(e.firstText)
		e.wb('\n')
		e.textSet = false
		e.firstText = ""
	}
	e.pendingName = ""
}

// Start opens an element.
func (e *Emitter) Start(label string) error {
	if e.pendingSet {
		e.open()
	}
	e.pendingName = label
	e.pendingSet = true
	return e.err
}

// Text emits one PCDATA node.
func (e *Emitter) Text(s string) error {
	if e.pendingSet {
		if !e.textSet {
			e.firstText = s
			e.textSet = true
			return e.err
		}
		e.open()
	}
	e.ws(indentOf(e.depth))
	e.escape(s)
	e.wb('\n')
	return e.err
}

// End closes the innermost open element, choosing the empty, inline or
// block rendering exactly as writeNode does.
func (e *Emitter) End() error {
	if e.pendingSet {
		e.ws(indentOf(e.depth))
		e.wb('<')
		e.ws(e.pendingName)
		if e.textSet {
			e.wb('>')
			e.escape(e.firstText)
			e.ws("</")
			e.ws(e.pendingName)
			e.ws(">\n")
			e.textSet = false
			e.firstText = ""
		} else {
			e.ws("/>\n")
		}
		e.pendingSet = false
		e.pendingName = ""
		return e.err
	}
	if len(e.stack) == 0 {
		if e.err == nil {
			e.err = fmt.Errorf("xmltree: emitter: End with no open element")
		}
		return e.err
	}
	name := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	e.depth--
	e.ws(indentOf(e.depth))
	e.ws("</")
	e.ws(name)
	e.ws(">\n")
	return e.err
}

// Node emits a fully built subtree (used for default fills and
// buffered-reorder fallbacks, where the fragment already exists as
// nodes).
func (e *Emitter) Node(n *Node) error {
	if n.IsText() {
		return e.Text(n.Text)
	}
	if err := e.Start(n.Label); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := e.Node(c); err != nil {
			return err
		}
	}
	return e.End()
}

// Flush drains the internal buffer. It must be called after the final
// End; it is an error to flush with elements still open or pending.
func (e *Emitter) Flush() error {
	if e.err != nil {
		return e.err
	}
	if e.pendingSet || len(e.stack) != 0 {
		e.err = fmt.Errorf("xmltree: emitter: Flush with unclosed element")
		return e.err
	}
	if err := e.w.Flush(); err != nil {
		e.err = err
	}
	return e.err
}
