// Package xmltree implements the paper's XML instance model: ordered,
// node-labeled trees in which every node — element or text — carries a
// distinct node id, text nodes are leaves holding PCDATA, and two trees
// are equal when they are isomorphic by an isomorphism that is the
// identity on string values (§2.1 of Fan & Bohannon).
//
// The package provides DTD conformance validation, XML parsing and
// serialization, and random instance generation from a DTD for tests
// and benchmarks. Parsing has one decoder: the byte scanner under
// Tokenizer (scan.go), which Parse builds trees from and stream
// migration reads directly. encoding/xml serves only as the reference
// it is tested against.
package xmltree

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"repro/internal/dtd"
)

// NodeID identifies a node within a document. IDs are drawn from the
// countably infinite id universe U of the paper; they are unique within
// a tree and never reused by the allocating Tree.
type NodeID int64

// TextLabel is the reserved label of text nodes.
const TextLabel = "#text"

// Node is an element or text node. Text nodes have Label == TextLabel,
// carry Text, and have no children.
type Node struct {
	ID       NodeID
	Label    string
	Text     string
	Parent   *Node
	Children []*Node
}

// IsText reports whether the node is a text (PCDATA) node.
func (n *Node) IsText() bool { return n.Label == TextLabel }

// Value returns the PCDATA carried by the node's single text child, for
// element nodes of str-typed elements; it returns "" and false when the
// node has no text child.
func (n *Node) Value() (string, bool) {
	for _, c := range n.Children {
		if c.IsText() {
			return c.Text, true
		}
	}
	return "", false
}

// ChildPosition returns the 1-based position of the node among its
// parent's children with the same label — the position() of the paper's
// X_R paths. The root has position 1.
func (n *Node) ChildPosition() int {
	if n.Parent == nil {
		return 1
	}
	pos := 0
	for _, sib := range n.Parent.Children {
		if sib.Label == n.Label {
			pos++
			if sib == n {
				return pos
			}
		}
	}
	return 0
}

// Tree is an XML document: a root node plus the id allocator for the
// document. The zero value is an empty document ready for node
// allocation (set Root after building); New is a convenience that also
// creates the root element.
type Tree struct {
	Root   *Node
	nextID NodeID
}

// New creates an empty document whose root element has the given label.
func New(rootLabel string) *Tree {
	t := &Tree{}
	t.Root = t.NewElement(rootLabel)
	return t
}

// NewElement allocates an element node with a fresh id, detached from
// the tree.
func (t *Tree) NewElement(label string) *Node {
	t.nextID++
	return &Node{ID: t.nextID, Label: label}
}

// NewText allocates a text node with a fresh id carrying the value.
func (t *Tree) NewText(value string) *Node {
	t.nextID++
	return &Node{ID: t.nextID, Label: TextLabel, Text: value}
}

// Append attaches child as the last child of parent.
func Append(parent, child *Node) {
	child.Parent = parent
	parent.Children = append(parent.Children, child)
}

// Size returns the number of nodes in the tree (elements and text).
func (t *Tree) Size() int {
	n := 0
	t.Walk(func(*Node) { n++ })
	return n
}

// Walk visits every node in document order.
func (t *Tree) Walk(f func(*Node)) {
	if t.Root == nil {
		return
	}
	walk(t.Root, f)
}

func walk(n *Node, f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		walk(c, f)
	}
}

// NodeByID returns the node with the given id, or nil.
func (t *Tree) NodeByID(id NodeID) *Node {
	var found *Node
	t.Walk(func(n *Node) {
		if n.ID == id {
			found = n
		}
	})
	return found
}

// Equal implements the paper's tree equality: T1 = T2 when they are
// isomorphic by an isomorphism that is the identity on string values.
// Node ids are ignored.
func Equal(t1, t2 *Tree) bool {
	if t1 == nil || t2 == nil {
		return t1 == t2
	}
	return nodeEqual(t1.Root, t2.Root)
}

func nodeEqual(n1, n2 *Node) bool {
	if n1.Label != n2.Label {
		return false
	}
	if n1.IsText() {
		return n1.Text == n2.Text
	}
	if len(n1.Children) != len(n2.Children) {
		return false
	}
	for i := range n1.Children {
		if !nodeEqual(n1.Children[i], n2.Children[i]) {
			return false
		}
	}
	return true
}

// Diff returns a human-readable description of the first difference
// between two trees, or "" when they are equal. It exists to make
// round-trip test failures diagnosable.
func Diff(t1, t2 *Tree) string {
	return nodeDiff(t1.Root, t2.Root, "/"+t1.Root.Label)
}

func nodeDiff(n1, n2 *Node, path string) string {
	if n1.Label != n2.Label {
		return fmt.Sprintf("%s: label %q vs %q", path, n1.Label, n2.Label)
	}
	if n1.IsText() && n1.Text != n2.Text {
		return fmt.Sprintf("%s: text %q vs %q", path, n1.Text, n2.Text)
	}
	if len(n1.Children) != len(n2.Children) {
		return fmt.Sprintf("%s: %d vs %d children", path, len(n1.Children), len(n2.Children))
	}
	for i := range n1.Children {
		sub := fmt.Sprintf("%s/%s[%d]", path, n1.Children[i].Label, i+1)
		if d := nodeDiff(n1.Children[i], n2.Children[i], sub); d != "" {
			return d
		}
	}
	return ""
}

// Clone returns a deep copy of the tree with fresh node ids assigned in
// document order.
func (t *Tree) Clone() *Tree {
	c := &Tree{}
	c.Root = c.cloneNode(t.Root, nil)
	return c
}

func (t *Tree) cloneNode(n *Node, parent *Node) *Node {
	var m *Node
	if n.IsText() {
		m = t.NewText(n.Text)
	} else {
		m = t.NewElement(n.Label)
	}
	m.Parent = parent
	for _, c := range n.Children {
		m.Children = append(m.Children, t.cloneNode(c, m))
	}
	return m
}

// String renders the tree as indented XML.
func (t *Tree) String() string {
	var b strings.Builder
	writeNode(&b, t.Root, 0)
	return b.String()
}

// StringCompact renders the tree as XML with no inter-element
// whitespace at all. External XPath engines see exactly the tree's
// text nodes and nothing else, so text() and string-value semantics
// line up with this package's evaluator — the differential harness
// serializes with this form. Reparsing yields an equal tree.
func (t *Tree) StringCompact() string {
	var b strings.Builder
	writeNodeCompact(&b, t.Root)
	return b.String()
}

func writeNodeCompact(b xmlWriter, n *Node) {
	if n.IsText() {
		xmlEscape(b, n.Text)
		return
	}
	if len(n.Children) == 0 {
		b.WriteByte('<')
		b.WriteString(n.Label)
		b.WriteString("/>")
		return
	}
	b.WriteByte('<')
	b.WriteString(n.Label)
	b.WriteByte('>')
	for _, c := range n.Children {
		writeNodeCompact(b, c)
	}
	b.WriteString("</")
	b.WriteString(n.Label)
	b.WriteByte('>')
}

// xmlWriter is the serialization sink: strings.Builder (String),
// bytes.Buffer (the pooled Write path in codec.go) and the Emitter's
// emitWriter satisfy it.
type xmlWriter interface {
	WriteString(string) (int, error)
	WriteByte(byte) error
}

// indents caches indentation prefixes for shallow depths; deeper
// levels fall back to strings.Repeat. Serialization is a data-plane
// hot path and per-node Repeat allocations dominate otherwise.
var indents = func() [32]string {
	var tab [32]string
	for i := range tab {
		tab[i] = strings.Repeat("  ", i)
	}
	return tab
}()

func indentOf(depth int) string {
	if depth < len(indents) {
		return indents[depth]
	}
	return strings.Repeat("  ", depth)
}

func writeNode(b xmlWriter, n *Node, depth int) {
	indent := indentOf(depth)
	if n.IsText() {
		b.WriteString(indent)
		xmlEscape(b, n.Text)
		b.WriteByte('\n')
		return
	}
	if len(n.Children) == 0 {
		b.WriteString(indent)
		b.WriteByte('<')
		b.WriteString(n.Label)
		b.WriteString("/>\n")
		return
	}
	if len(n.Children) == 1 && n.Children[0].IsText() {
		b.WriteString(indent)
		b.WriteByte('<')
		b.WriteString(n.Label)
		b.WriteByte('>')
		xmlEscape(b, n.Children[0].Text)
		b.WriteString("</")
		b.WriteString(n.Label)
		b.WriteString(">\n")
		return
	}
	b.WriteString(indent)
	b.WriteByte('<')
	b.WriteString(n.Label)
	b.WriteString(">\n")
	for _, c := range n.Children {
		writeNode(b, c, depth+1)
	}
	b.WriteString(indent)
	b.WriteString("</")
	b.WriteString(n.Label)
	b.WriteString(">\n")
}

// xmlEscape writes s as character data: '&', '<' and '>' as entity
// references, CR as a character reference, and each byte that is not
// part of valid UTF-8 as U+FFFD. Every run of bytes between two such
// characters leaves in one WriteString.
func xmlEscape(b xmlWriter, s string) {
	last := 0
	for i := 0; i < len(s); {
		var esc string
		n := 1
		switch c := s[i]; {
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c == '>':
			esc = "&gt;"
		case c == '\r':
			// A literal CR in character data is normalized to LF by
			// conforming parsers (XML 1.0 §2.11), so it must leave as a
			// character reference or the value changes on reparse.
			esc = "&#xD;"
		case c < utf8.RuneSelf:
			i++
			continue
		default:
			var r rune
			if r, n = utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || n != 1 {
				i += n
				continue
			}
			esc = "\uFFFD"
		}
		b.WriteString(s[last:i])
		b.WriteString(esc)
		i += n
		last = i
	}
	b.WriteString(s[last:])
}

// Validate checks that the tree conforms to the DTD: the root carries
// the root type, and every element's children match its production in
// the normal form. Text nodes appear exactly where str productions
// require them.
func (t *Tree) Validate(d *dtd.DTD) error {
	if t.Root == nil {
		return fmt.Errorf("xmltree: empty document")
	}
	if t.Root.Label != d.Root {
		return fmt.Errorf("xmltree: root is %q, want %q", t.Root.Label, d.Root)
	}
	return validateNode(t.Root, d)
}

func validateNode(n *Node, d *dtd.DTD) error {
	if n.IsText() {
		return fmt.Errorf("xmltree: unexpected bare text node %q", n.Text)
	}
	p, ok := d.Prods[n.Label]
	if !ok {
		return fmt.Errorf("xmltree: element %q is not defined by the DTD", n.Label)
	}
	switch p.Kind {
	case dtd.KindStr:
		if len(n.Children) != 1 || !n.Children[0].IsText() {
			return fmt.Errorf("xmltree: %q must contain exactly one text node", n.Label)
		}
		return nil
	case dtd.KindEmpty:
		if len(n.Children) != 0 {
			return fmt.Errorf("xmltree: %q must be empty, has %d children", n.Label, len(n.Children))
		}
		return nil
	case dtd.KindConcat:
		if len(n.Children) != len(p.Children) {
			return fmt.Errorf("xmltree: %q has %d children, production requires %d", n.Label, len(n.Children), len(p.Children))
		}
		for i, c := range n.Children {
			if c.IsText() || c.Label != p.Children[i] {
				return fmt.Errorf("xmltree: child %d of %q is %q, want %q", i+1, n.Label, c.Label, p.Children[i])
			}
		}
	case dtd.KindDisj:
		if len(n.Children) != 1 {
			return fmt.Errorf("xmltree: disjunction element %q must have exactly one child, has %d", n.Label, len(n.Children))
		}
		c := n.Children[0]
		ok := false
		for _, b := range p.Children {
			if c.Label == b {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("xmltree: child %q of %q is not a permitted disjunct", c.Label, n.Label)
		}
	case dtd.KindStar:
		for i, c := range n.Children {
			if c.IsText() || c.Label != p.Children[0] {
				return fmt.Errorf("xmltree: child %d of %q is %q, want %q", i+1, n.Label, c.Label, p.Children[0])
			}
		}
	}
	for _, c := range n.Children {
		if err := validateNode(c, d); err != nil {
			return err
		}
	}
	return nil
}
