package xmltree

import (
	"bytes"
	"io"
	"strings"
	"sync"

	"repro/internal/guard"
)

// encPool recycles serialization buffers: batch migration encodes
// thousands of trees back to back.
var encPool sync.Pool // *bytes.Buffer

const maxPooledBuf = 1 << 20 // drop oversized buffers instead of pooling them

func getEncBuf() *bytes.Buffer {
	if b, _ := encPool.Get().(*bytes.Buffer); b != nil {
		b.Reset()
		return b
	}
	return bytes.NewBuffer(make([]byte, 0, 4096))
}

func putEncBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	encPool.Put(b)
}

// Parse reads an XML document into a Tree: it builds the tree from
// the Tokenizer's node stream, so the two accept the same documents
// and see the same nodes. Whitespace-only character data between
// elements is dropped (the paper's model is element content plus
// PCDATA leaves); attributes, comments, processing instructions and
// directives are ignored. Node ids are assigned in document order.
//
// Parse enforces the default guard.Limits: input size, element nesting
// depth and total node count are bounded, and hostile input fails with
// a *guard.LimitError instead of exhausting the stack or the heap. Use
// ParseLimits to tighten or lift the bounds.
func Parse(r io.Reader) (*Tree, error) {
	return ParseLimits(r, guard.Limits{})
}

// ParseLimits is Parse under explicit resource limits (zero fields
// select the defaults; guard.Unlimited() disables the checks).
func ParseLimits(r io.Reader, lim guard.Limits) (*Tree, error) {
	z := newTokenizer(r, lim, "xmltree: parse")
	t := &Tree{}
	// Nodes and child lists are carved from slabs, so a document costs
	// an allocation per few hundred nodes plus one per text value. The
	// children of the open elements wait in kids until their parent
	// closes; each list is then copied out at its exact length.
	var nodes []Node
	var lists, kids []*Node
	type open struct {
		n    *Node
		kids int // where n's children start in kids
	}
	var stack []open
	newNode := func(label, text string) *Node {
		if len(nodes) == cap(nodes) {
			nodes = make([]Node, 0, min(max(2*cap(nodes), 16), 512))
		}
		t.nextID++
		nodes = append(nodes, Node{ID: t.nextID, Label: label, Text: text})
		n := &nodes[len(nodes)-1]
		if len(stack) > 0 {
			n.Parent = stack[len(stack)-1].n
			kids = append(kids, n)
		}
		return n
	}
	for {
		tok, err := z.Next()
		if err != nil {
			return nil, err
		}
		switch tok.Kind {
		case TokStart:
			n := newNode(tok.Name, "")
			if len(stack) == 0 {
				t.Root = n
			}
			stack = append(stack, open{n, len(kids)})
		case TokText:
			newNode(TextLabel, tok.Text)
		case TokEnd:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if c := kids[top.kids:]; len(c) > 0 {
				if cap(lists)-len(lists) < len(c) {
					lists = make([]*Node, 0, max(len(c), 512))
				}
				lists = append(lists, c...)
				top.n.Children = lists[len(lists)-len(c) : len(lists) : len(lists)]
				kids = kids[:top.kids]
			}
		case TokEOF:
			return t, nil
		}
	}
}

// ParseString is Parse over a string.
func ParseString(s string) (*Tree, error) {
	return Parse(strings.NewReader(s))
}

// Write serializes the tree as indented XML to w. The serialization
// buffer comes from a pool, so batch encoding does not reallocate the
// full document image per tree; output is byte-identical to String.
func (t *Tree) Write(w io.Writer) error {
	b := getEncBuf()
	writeNode(b, t.Root, 0)
	_, err := w.Write(b.Bytes())
	putEncBuf(b)
	return err
}

// WriteCompact is StringCompact to a writer, sharing the pooled
// serialization buffer with Write.
func (t *Tree) WriteCompact(w io.Writer) error {
	b := getEncBuf()
	writeNodeCompact(b, t.Root)
	_, err := w.Write(b.Bytes())
	putEncBuf(b)
	return err
}
