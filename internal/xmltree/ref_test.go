package xmltree

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/guard"
)

// refParseLimits is the reference decoder the scanner is held to: the
// encoding/xml-based ParseLimits the package shipped before it had its
// own scanner, kept verbatim except for two rules the scanner
// introduced and the reference applies the same way: a byte order mark
// at the start of the input is skipped, and non-whitespace character
// data before or after the root element is an error instead of being
// dropped. FuzzXMLDecode and the differential tests require that the
// scanner and this function both fail or build equal trees.
func refParseLimits(r io.Reader, lim guard.Limits) (*Tree, error) {
	lim = lim.WithDefaults()
	cr := &refCountingReader{r: r, lim: lim, ctx: "xmltree: parse"}
	br := bufio.NewReader(cr)
	if bom, _ := br.Peek(3); bytes.Equal(bom, []byte("\xEF\xBB\xBF")) {
		br.Discard(3)
	}
	dec := xml.NewDecoder(br)
	t := &Tree{}
	names := make(map[string]bool)
	nodes := 0
	addNode := func() error {
		nodes++
		return lim.CheckNodes(nodes, "xmltree: parse")
	}
	var stack []*Node
	var pending strings.Builder
	flushText := func() error {
		if pending.Len() == 0 {
			return nil
		}
		text := pending.String()
		pending.Reset()
		if strings.TrimSpace(text) == "" {
			return nil
		}
		if len(stack) == 0 {
			return fmt.Errorf("xmltree: parse: character data outside the root element")
		}
		if err := addNode(); err != nil {
			return err
		}
		Append(stack[len(stack)-1], t.NewText(strings.TrimSpace(text)))
		return nil
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			if le := cr.limitErr; le != nil {
				return nil, le
			}
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			if err := flushText(); err != nil {
				return nil, err
			}
			if err := lim.CheckDepth(len(stack)+1, "xmltree: parse"); err != nil {
				return nil, err
			}
			if err := addNode(); err != nil {
				return nil, err
			}
			if !refValidName(tok.Name.Local, names) {
				return nil, fmt.Errorf("xmltree: parse: element name %q is not a valid XML name on its own (namespaced local names like \"ns:%s\" cannot round-trip)", tok.Name.Local, tok.Name.Local)
			}
			n := t.NewElement(tok.Name.Local)
			if len(stack) == 0 {
				if t.Root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements")
				}
				t.Root = n
			} else {
				Append(stack[len(stack)-1], n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if err := flushText(); err != nil {
				return nil, err
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %q", tok.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			pending.WriteString(string(tok))
		}
	}
	if err := flushText(); err != nil {
		return nil, err
	}
	if t.Root == nil {
		return nil, fmt.Errorf("xmltree: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unclosed element %q", stack[len(stack)-1].Label)
	}
	return t, nil
}

// refValidName reports whether encoding/xml accepts label as a
// complete element name, so that serializing the tree reparses. The
// decoder splits qualified names at the first colon, and a local part
// like "0" (from "<A:0/>") is not a name by itself. cache memoizes
// verdicts per document.
func refValidName(label string, cache map[string]bool) bool {
	ok, hit := cache[label]
	if hit {
		return ok
	}
	tok, err := xml.NewDecoder(strings.NewReader("<" + label + "/>")).Token()
	if err == nil {
		se, isStart := tok.(xml.StartElement)
		ok = isStart && se.Name.Space == "" && se.Name.Local == label && len(se.Attr) == 0
	}
	cache[label] = ok
	return ok
}

// refCountingReader bounds the bytes read from the underlying reader,
// surfacing a LimitError through the decoder.
type refCountingReader struct {
	r        io.Reader
	n        int
	lim      guard.Limits
	ctx      string
	limitErr error
}

func (c *refCountingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	if lerr := c.lim.CheckInputBytes(c.n, c.ctx); lerr != nil {
		c.limitErr = lerr
		return n, lerr
	}
	return n, err
}
