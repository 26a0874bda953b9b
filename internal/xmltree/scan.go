package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf8"
)

// The byte scanner under Tokenizer. It reads the input through one
// refill buffer and accepts what encoding/xml's strict decoder, which
// the package used before and keeps as the test-only reference in
// ref_test.go, accepts:
//
//   - elements; attributes are checked for well-formedness (a name, an
//     '=', a quoted value with valid references) and otherwise skipped;
//   - the five predefined entities and character references, CR and
//     CRLF normalized to LF, and the XML Char range enforced on valid
//     UTF-8 (a surrogate reference decodes to U+FFFD, as the reference
//     does);
//   - CDATA sections, comments, processing instructions and an XML
//     declaration whose encoding, if given, must be UTF-8;
//   - directives such as a DOCTYPE, skipped up to the matching '>'
//     outside quotes, internal subset included;
//   - prefixed names: "ns:b" is the label "b", and a prefixed name
//     whose local part is not a name on its own ("A:0") is rejected,
//     since its label could not be serialized and read back;
//   - a byte order mark at the very start, skipped (the reference
//     skips it too; to the stdlib decoder it is character data).
//
// Tokenizer adds the document rules: one root element, and only white
// space outside it.

const (
	scanBufSize    = 32 << 10
	maxPooledText  = 1 << 20 // drop oversized text buffers instead of pooling them
	maxPooledNames = 4096    // forget the interned labels past this many
)

// scanState is the part of a Tokenizer that outlives one document: the
// refill buffer, the pending-text accumulator, a scratch buffer for
// names that straddle a refill, and the interned element labels. It is
// pooled, so a batch of documents allocates none of it in the steady
// state and a repeated element name allocates nothing at all.
type scanState struct {
	buf     []byte
	text    []byte
	scratch []byte
	labels  map[string]label // raw element name -> label
	recent  [64]label        // direct-mapped cache in front of labels
}

// label is an interned element name: the raw name as written (end
// tags must repeat it exactly), the local part after a namespace
// prefix (the node label), and whether the local part is a name on its
// own.
type label struct {
	qname, local string
	ok           bool
}

var scanPool sync.Pool // *scanState

func getScanState() *scanState {
	if s, _ := scanPool.Get().(*scanState); s != nil {
		return s
	}
	return &scanState{buf: make([]byte, scanBufSize), labels: make(map[string]label, 16)}
}

// release returns the pooled state once the scan is over (at TokEOF or
// the first error).
func (z *Tokenizer) release() {
	s := z.s
	if s == nil {
		return
	}
	z.s, z.buf, z.pos, z.end = nil, nil, 0, 0
	if cap(s.text) > maxPooledText || cap(s.scratch) > maxPooledText {
		return
	}
	if len(s.labels) > maxPooledNames {
		s.labels = make(map[string]label, 16) // clear would keep the grown table
		s.recent = [64]label{}
	}
	s.text, s.scratch = s.text[:0], s.scratch[:0]
	scanPool.Put(s)
}

// fill drops the scanned bytes and reads more input after the unread
// ones. It reports false when nothing more can be read; z.rerr then
// holds io.EOF, the limit error, or the wrapped read error.
func (z *Tokenizer) fill() bool {
	if z.rerr != nil {
		return false
	}
	if z.pos > 0 {
		z.lines += bytes.Count(z.buf[:z.pos], []byte{'\n'})
		z.end = copy(z.buf, z.buf[z.pos:z.end])
		z.pos = 0
	}
	for {
		n, err := z.r.Read(z.buf[z.end:])
		z.end += n
		z.nread += n
		if lerr := z.lim.CheckInputBytes(z.nread, z.ctx); lerr != nil {
			z.rerr = lerr
			return false
		}
		if err != nil {
			if err != io.EOF {
				err = fmt.Errorf("xmltree: parse: %w", err)
			}
			z.rerr = err
		}
		if n > 0 {
			return true
		}
		if err != nil {
			return false
		}
	}
}

// need buffers at least n unread bytes unless the input ends first. It
// returns a limit or read error, never io.EOF.
func (z *Tokenizer) need(n int) error {
	for z.end-z.pos < n && z.fill() {
	}
	if z.rerr != nil && z.rerr != io.EOF {
		return z.rerr
	}
	return nil
}

// getc reads one byte; false means the input ended (see eofErr).
func (z *Tokenizer) getc() (byte, bool) {
	if z.pos >= z.end && !z.fill() {
		return 0, false
	}
	c := z.buf[z.pos]
	z.pos++
	return c, true
}

// eofErr is the error for input that ends where more is required.
func (z *Tokenizer) eofErr() error {
	if z.rerr == io.EOF {
		return z.syntaxError("unexpected EOF")
	}
	return z.rerr
}

func (z *Tokenizer) syntaxError(msg string) error {
	line := 1 + z.lines
	if z.buf != nil {
		line += bytes.Count(z.buf[:z.pos], []byte{'\n'})
	}
	return fmt.Errorf("xmltree: parse: XML syntax error on line %d: %s", line, msg)
}

// skipBOM skips a UTF-8 byte order mark at the start of the input: it
// is the encoding signature, not character data.
func (z *Tokenizer) skipBOM() error {
	if err := z.need(3); err != nil {
		return err
	}
	if bytes.HasPrefix(z.buf[z.pos:z.end], []byte("\xEF\xBB\xBF")) {
		z.pos += 3
	}
	return nil
}

// space skips XML white space.
func (z *Tokenizer) space() {
	for {
		if z.pos >= z.end && !z.fill() {
			return
		}
		switch z.buf[z.pos] {
		case ' ', '\r', '\n', '\t':
			z.pos++
		default:
			return
		}
	}
}

// skipSpace skips the buffered XML white space at the read position
// and reports whether that was all of the character data there: it
// stopped at the end of the buffer or at markup.
func (z *Tokenizer) skipSpace() bool {
	buf, i := z.buf[:z.end], z.pos
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\n' || buf[i] == '\t' || buf[i] == '\r') {
		i++
	}
	z.pos = i
	return i == len(buf) || buf[i] == '<'
}

// readName reads the bytes of a name: ASCII name characters and any
// non-ASCII byte, to be checked by isName. It returns nil, consuming
// nothing, when the next byte cannot be part of a name. The slice
// points into the buffer (or the scratch buffer when the name
// straddles a refill) and is valid until the next read.
func (z *Tokenizer) readName() ([]byte, error) {
	if z.pos >= z.end && !z.fill() {
		return nil, z.eofErr()
	}
	buf, start, i := z.buf[:z.end], z.pos, z.pos
	for i < len(buf) && nameByte[buf[i]] {
		i++
	}
	if i < len(buf) {
		z.pos = i
		if i == start {
			return nil, nil
		}
		return z.buf[start:i], nil
	}
	sc := append(z.s.scratch[:0], z.buf[start:i]...)
	z.pos = i
	for {
		c, ok := z.getc()
		if !ok {
			z.s.scratch = sc
			return nil, z.eofErr()
		}
		if !nameByte[c] {
			z.pos--
			break
		}
		sc = append(sc, c)
	}
	z.s.scratch = sc
	return sc, nil
}

// checkQName checks a tag or attribute name: well-formed, with at most
// one colon.
func (z *Tokenizer) checkQName(name []byte, after string) error {
	if !isName(name) {
		return z.syntaxError("invalid XML name: " + string(name))
	}
	if bytes.Count(name, []byte{':'}) > 1 {
		return z.syntaxError("expected element name after " + after)
	}
	return nil
}

// elementName reads a start tag's name and returns its interned label.
func (z *Tokenizer) elementName() (label, error) {
	name, err := z.readName()
	if err != nil {
		return label{}, err
	}
	if name == nil {
		return label{}, z.syntaxError("expected element name after <")
	}
	slot := &z.s.recent[(len(name)*31+int(name[0])*7+int(name[len(name)-1]))&(len(z.s.recent)-1)]
	if string(name) == slot.qname {
		return *slot, nil
	}
	if lab, ok := z.s.labels[string(name)]; ok {
		*slot = lab
		return lab, nil
	}
	if err := z.checkQName(name, "<"); err != nil {
		return label{}, err
	}
	q := string(name)
	lab := label{qname: q, local: q, ok: true}
	// A colon strictly inside the name separates a prefix; a leading
	// or trailing one is part of the local name.
	if i := strings.IndexByte(q, ':'); i > 0 && i < len(q)-1 {
		lab.local = q[i+1:]
		r, _ := utf8.DecodeRuneInString(lab.local)
		lab.ok = isNameStart(r)
	}
	z.s.labels[q] = lab
	*slot = lab
	return lab, nil
}

// skipAttrs checks the rest of a start tag after its name and reports
// whether it closed with "/>".
func (z *Tokenizer) skipAttrs() (empty bool, err error) {
	for {
		z.space()
		c, ok := z.getc()
		if !ok {
			return false, z.eofErr()
		}
		switch c {
		case '>':
			return false, nil
		case '/':
			if c, ok = z.getc(); !ok {
				return false, z.eofErr()
			}
			if c != '>' {
				return false, z.syntaxError("expected /> in element")
			}
			return true, nil
		}
		z.pos--
		name, err := z.readName()
		if err != nil {
			return false, err
		}
		if name == nil {
			return false, z.syntaxError("expected attribute name in element")
		}
		if err := z.checkQName(name, "attribute"); err != nil {
			return false, err
		}
		z.space()
		if c, ok = z.getc(); !ok {
			return false, z.eofErr()
		}
		if c != '=' {
			return false, z.syntaxError("attribute name without = in element")
		}
		z.space()
		if c, ok = z.getc(); !ok {
			return false, z.eofErr()
		}
		if c != '"' && c != '\'' {
			return false, z.syntaxError("unquoted or missing attribute value in element")
		}
		if err := z.skipAttrValue(c); err != nil {
			return false, err
		}
	}
}

// skipAttrValue checks a quoted attribute value up to its closing
// quote: no '<', valid references, valid characters.
func (z *Tokenizer) skipAttrValue(quote byte) error {
	var ref [utf8.UTFMax]byte
	for {
		c, ok := z.getc()
		if !ok {
			return z.eofErr()
		}
		switch {
		case c == quote:
			return nil
		case c == '<':
			return z.syntaxError("unescaped < inside quoted string")
		case c == '&':
			if _, err := z.reference(ref[:0]); err != nil {
				return err
			}
		case c >= utf8.RuneSelf:
			z.pos--
			if _, err := z.char(ref[:0]); err != nil {
				return err
			}
		case c < 0x20 && c != '\t' && c != '\n' && c != '\r':
			return z.illegalChar(rune(c))
		}
	}
}

func (z *Tokenizer) illegalChar(r rune) error {
	return z.syntaxError(fmt.Sprintf("illegal character code %U", r))
}

// isInCharacterRange is the Char production of XML 1.0 §2.2.
func isInCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// char checks the multi-byte UTF-8 sequence at the read position and
// appends it to dst.
func (z *Tokenizer) char(dst []byte) ([]byte, error) {
	if err := z.need(utf8.UTFMax); err != nil {
		return dst, err
	}
	r, n := utf8.DecodeRune(z.buf[z.pos:z.end])
	if r == utf8.RuneError && n == 1 {
		return dst, z.syntaxError("invalid UTF-8")
	}
	if !isInCharacterRange(r) {
		return dst, z.illegalChar(r)
	}
	dst = append(dst, z.buf[z.pos:z.pos+n]...)
	z.pos += n
	return dst, nil
}

// reference decodes an entity or character reference (the '&'
// consumed) and appends its character to dst.
func (z *Tokenizer) reference(dst []byte) ([]byte, error) {
	c, ok := z.getc()
	if !ok {
		return dst, z.eofErr()
	}
	if c == '#' {
		if c, ok = z.getc(); !ok {
			return dst, z.eofErr()
		}
		base := rune(10)
		if c == 'x' {
			base = 16
			if c, ok = z.getc(); !ok {
				return dst, z.eofErr()
			}
		}
		var v rune
		digits := 0
		for {
			d := rune(-1)
			switch {
			case '0' <= c && c <= '9':
				d = rune(c - '0')
			case base == 16 && 'a' <= c && c <= 'f':
				d = rune(c-'a') + 10
			case base == 16 && 'A' <= c && c <= 'F':
				d = rune(c-'A') + 10
			}
			if d < 0 {
				break
			}
			if v = v*base + d; v > utf8.MaxRune {
				v = utf8.MaxRune + 1 // saturate: out of range either way
			}
			digits++
			if c, ok = z.getc(); !ok {
				return dst, z.eofErr()
			}
		}
		if c != ';' || digits == 0 || v > utf8.MaxRune {
			return dst, z.syntaxError("invalid character reference")
		}
		if 0xD800 <= v && v <= 0xDFFF {
			v = utf8.RuneError // as string(rune(v)) decodes it
		}
		if !isInCharacterRange(v) {
			return dst, z.illegalChar(v)
		}
		return utf8.AppendRune(dst, v), nil
	}
	var name [4]byte
	n := 0
	for nameByte[c] {
		if n < len(name) {
			name[n] = c
		}
		n++
		if c, ok = z.getc(); !ok {
			return dst, z.eofErr()
		}
	}
	if c == ';' && n <= len(name) {
		switch string(name[:n]) {
		case "lt":
			return append(dst, '<'), nil
		case "gt":
			return append(dst, '>'), nil
		case "amp":
			return append(dst, '&'), nil
		case "apos":
			return append(dst, '\''), nil
		case "quot":
			return append(dst, '"'), nil
		}
	}
	return dst, z.syntaxError("invalid character entity")
}

// textPlain marks the bytes scanText copies without a second look.
var textPlain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	t['\t'], t['\n'] = true, true
	for _, c := range "<&]>" {
		t[c] = false
	}
	return t
}()

// scanText appends decoded character data to the pending text: one run
// up to the next '<' or the end of input, or with cdata one CDATA
// section body (the "<![CDATA[" consumed) up to and including its
// "]]>". CR and CRLF become LF; "]]>" ends a CDATA section and is an
// error in plain text.
func (z *Tokenizer) scanText(cdata bool) error {
	text := z.s.text
	defer func() { z.s.text = text }()
	brackets := 0 // consecutive ']' just read
	cr := false   // the last byte read was a CR
	for {
		if z.pos >= z.end && !z.fill() {
			if cdata {
				if z.rerr == io.EOF {
					return z.syntaxError("unexpected EOF in CDATA section")
				}
				return z.rerr
			}
			return nil // Next reports the end of input or the error
		}
		c := z.buf[z.pos]
		if cr {
			cr = false
			if c == '\n' { // already written as the CR's LF
				z.pos++
				brackets = 0
				continue
			}
		}
		if textPlain[c] {
			buf, end, i := z.buf, z.end, z.pos+1
			for i < end && textPlain[buf[i]] {
				i++
			}
			text = append(text, buf[z.pos:i]...)
			z.pos = i
			brackets = 0
			continue
		}
		switch {
		case c == ']':
			text = append(text, c)
			z.pos++
			brackets++
			continue
		case c == '>':
			z.pos++
			if brackets >= 2 {
				if cdata {
					text = text[:len(text)-2]
					return nil
				}
				return z.syntaxError("unescaped ]]> not in CDATA section")
			}
			text = append(text, c)
		case c == '\r':
			z.pos++
			text = append(text, '\n')
			cr = true
		case cdata && (c == '<' || c == '&'):
			z.pos++
			text = append(text, c)
		case c == '<':
			return nil
		case c == '&':
			z.pos++
			var err error
			if text, err = z.reference(text); err != nil {
				return err
			}
		case c >= utf8.RuneSelf:
			var err error
			if text, err = z.char(text); err != nil {
				return err
			}
		default:
			return z.illegalChar(rune(c))
		}
		brackets = 0
	}
}

// skipBang scans the markup after "<!": a comment, a CDATA section
// (its text joins the pending text) or a directive.
func (z *Tokenizer) skipBang() error {
	c, ok := z.getc()
	if !ok {
		return z.eofErr()
	}
	switch c {
	case '-':
		if c, ok = z.getc(); !ok {
			return z.eofErr()
		}
		if c != '-' {
			return z.syntaxError("invalid sequence <!- not part of <!--")
		}
		return z.skipComment()
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if c, ok = z.getc(); !ok {
				return z.eofErr()
			}
			if c != "CDATA["[i] {
				return z.syntaxError("invalid <![ sequence")
			}
		}
		return z.scanText(true)
	}
	return z.skipDirective()
}

// skipComment skips a comment body (the "<!--" consumed) through its
// "-->"; "--" anywhere else in it is an error.
func (z *Tokenizer) skipComment() error {
	var b0, b1 byte
	for {
		c, ok := z.getc()
		if !ok {
			return z.eofErr()
		}
		if b0 == '-' && b1 == '-' {
			if c != '>' {
				return z.syntaxError(`invalid sequence "--" not allowed in comments`)
			}
			return nil
		}
		b0, b1 = b1, c
	}
}

// skipDirective skips a directive such as <!DOCTYPE ...> (the "<!" and
// the byte after it consumed) up to the '>' that balances its '<'s.
// Quoted text and comments inside do not count.
func (z *Tokenizer) skipDirective() error {
	var inquote byte
	depth := 0
	for {
		c, ok := z.getc()
		if !ok {
			return z.eofErr()
		}
		if inquote == 0 && c == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case c == inquote:
			inquote = 0
		case inquote != 0:
		case c == '\'' || c == '"':
			inquote = c
		case c == '>':
			depth--
		case c == '<':
			for i := 0; i < len("!--"); i++ {
				if c, ok = z.getc(); !ok {
					return z.eofErr()
				}
				if c != "!--"[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if c, ok = z.getc(); !ok {
					return z.eofErr()
				}
				if b0 == '-' && b1 == '-' && c == '>' {
					break
				}
				b0, b1 = b1, c
			}
		}
	}
}

// skipPI skips a processing instruction (the "<?" consumed). An XML
// declaration must declare version 1.0, if any, and UTF-8, if any
// encoding.
func (z *Tokenizer) skipPI() error {
	target, err := z.readName()
	if err != nil {
		return err
	}
	if target == nil {
		return z.syntaxError("expected target name after <?")
	}
	if !isName(target) {
		return z.syntaxError("invalid XML name: " + string(target))
	}
	decl := string(target) == "xml"
	z.space()
	data := z.s.scratch[:0]
	var b0 byte
	for {
		c, ok := z.getc()
		if !ok {
			return z.eofErr()
		}
		if decl {
			data = append(data, c)
		}
		if b0 == '?' && c == '>' {
			break
		}
		b0 = c
	}
	z.s.scratch = data
	if !decl {
		return nil
	}
	content := string(data[:len(data)-2])
	if ver := piParam("version", content); ver != "" && ver != "1.0" {
		return fmt.Errorf("xmltree: parse: unsupported XML version %q; only version 1.0 is supported", ver)
	}
	if enc := piParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("xmltree: parse: unsupported encoding %q; only UTF-8 is supported", enc)
	}
	return nil
}

// piParam returns the quoted value of param= in a PI's content, or ""
// when there is none: the first occurrence of "param=" directly
// followed by a quote, up to the matching quote.
func piParam(param, s string) string {
	param += "="
	for i := 0; ; {
		k := strings.Index(s[i:], param)
		if k < 0 || i+k+len(param) >= len(s) {
			return ""
		}
		i += k + len(param)
		if q := s[i]; q == '\'' || q == '"' {
			j := strings.IndexByte(s[i+1:], q)
			if j < 0 {
				return ""
			}
			return s[i+1 : i+1+j]
		}
		i++
	}
}
