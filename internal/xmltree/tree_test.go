package xmltree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dtd"
)

func classDTD(t *testing.T) *dtd.DTD {
	t.Helper()
	return dtd.MustNew("db",
		dtd.D("db", dtd.Star("class")),
		dtd.D("class", dtd.Concat("cno", "title", "type")),
		dtd.D("cno", dtd.Str()),
		dtd.D("title", dtd.Str()),
		dtd.D("type", dtd.Disj("regular", "project")),
		dtd.D("regular", dtd.Concat("prereq")),
		dtd.D("project", dtd.Str()),
		dtd.D("prereq", dtd.Star("class")),
	)
}

const classDoc = `
<db>
  <class>
    <cno>CS331</cno>
    <title>Databases</title>
    <type>
      <regular>
        <prereq>
          <class>
            <cno>CS210</cno>
            <title>Algorithms</title>
            <type><project>solo</project></type>
          </class>
        </prereq>
      </regular>
    </type>
  </class>
</db>`

func TestParseAndValidate(t *testing.T) {
	tr, err := ParseString(classDoc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if err := tr.Validate(classDTD(t)); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.Root.Label != "db" {
		t.Errorf("root label = %q", tr.Root.Label)
	}
	cls := tr.Root.Children[0]
	if v, ok := cls.Children[0].Value(); !ok || v != "CS331" {
		t.Errorf("cno value = %q, %v", v, ok)
	}
}

func TestNodeIDsDistinct(t *testing.T) {
	tr, err := ParseString(classDoc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[NodeID]bool{}
	tr.Walk(func(n *Node) {
		if seen[n.ID] {
			t.Fatalf("duplicate node id %d", n.ID)
		}
		seen[n.ID] = true
	})
	if got := tr.Size(); got != len(seen) {
		t.Errorf("Size() = %d, ids = %d", got, len(seen))
	}
}

func TestChildPosition(t *testing.T) {
	tr, _ := ParseString(`<r><a/><b/><a/><a/></r>`)
	kids := tr.Root.Children
	wants := []int{1, 1, 2, 3}
	for i, w := range wants {
		if got := kids[i].ChildPosition(); got != w {
			t.Errorf("child %d position = %d, want %d", i, got, w)
		}
	}
	if tr.Root.ChildPosition() != 1 {
		t.Error("root position should be 1")
	}
}

func TestEqualAndDiff(t *testing.T) {
	a, _ := ParseString(`<r><a>x</a><b/></r>`)
	b, _ := ParseString(`<r><a>x</a><b/></r>`)
	if !Equal(a, b) {
		t.Error("identical documents not Equal")
	}
	c, _ := ParseString(`<r><a>y</a><b/></r>`)
	if Equal(a, c) {
		t.Error("documents with different PCDATA reported Equal")
	}
	if d := Diff(a, c); !strings.Contains(d, `"x"`) {
		t.Errorf("Diff = %q, want the differing text values", d)
	}
	e, _ := ParseString(`<r><b/><a>x</a></r>`)
	if Equal(a, e) {
		t.Error("ordered equality must distinguish sibling order")
	}
	if d := Diff(a, a.Clone()); d != "" {
		t.Errorf("Diff(t, t.Clone()) = %q, want empty", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	a, _ := ParseString(`<r><a>x</a></r>`)
	c := a.Clone()
	c.Root.Children[0].Children[0].Text = "changed"
	if v, _ := a.Root.Children[0].Value(); v != "x" {
		t.Error("Clone shares text storage with original")
	}
	if !Equal(a, a) {
		t.Error("self equality")
	}
}

func TestValidateErrors(t *testing.T) {
	d := classDTD(t)
	cases := []struct {
		name, doc, want string
	}{
		{"wrong root", `<x/>`, "root is"},
		{"missing child", `<db><class><cno>1</cno><title>t</title></class></db>`, "children"},
		{"wrong order", `<db><class><title>t</title><cno>1</cno><type><project>p</project></type></class></db>`, "child 1"},
		{"two disjuncts", `<db><class><cno>1</cno><title>t</title><type><project>p</project><project>q</project></type></class></db>`, "exactly one child"},
		{"bad disjunct", `<db><class><cno>1</cno><title>t</title><type><cno>1</cno></type></class></db>`, "not a permitted disjunct"},
		{"undefined element", `<db><zebra/></db>`, "want"},
		{"text under star", `<db>hello</db>`, ""},
		{"missing text", `<db><class><cno/><title>t</title><type><project>p</project></type></class></db>`, "exactly one text node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ParseString(tc.doc)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			err = tr.Validate(d)
			if err == nil {
				t.Fatal("Validate succeeded, want error")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	for _, doc := range []string{``, `<a><b></a></b>`, `<a/><b/>`, `no markup at all`,
		`<a/>junk`, `junk<a/>`, `<a/><!-- c -->x`, "\ufeff\ufeff<a/>"} {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", doc)
		}
	}
}

// TestParseRejectsUnroundtrippableNames is the minimized fuzz finding
// (corpus entry testdata/fuzz/FuzzXMLDecode/4b1974856ae82edd): the
// decoder splits "A:0" into prefix "A" and local name "0", and "0"
// alone is not a valid XML name — serializing a tree labeled "0" could
// never be parsed back. Such documents must fail at parse time.
// Prefixed names whose local part stands alone still parse, with the
// prefix stripped as documented.
func TestParseRejectsUnroundtrippableNames(t *testing.T) {
	for _, doc := range []string{
		`<ns:a A:0=""><A:0/></ns:a>`,
		`<A:0/>`,
		`<x:-bad/>`,
	} {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", doc)
		}
	}
	tr, err := ParseString(`<ns:a><ns:b>x</ns:b></ns:a>`)
	if err != nil {
		t.Fatalf("prefixed element with valid local name rejected: %v", err)
	}
	if tr.Root.Label != "a" || tr.Root.Children[0].Label != "b" {
		t.Errorf("prefix not stripped: root %q, child %q", tr.Root.Label, tr.Root.Children[0].Label)
	}
	if _, err := ParseString(tr.String()); err != nil {
		t.Errorf("round trip failed: %v", err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	tr, err := ParseString(classDoc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(tr.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !Equal(tr, back) {
		t.Errorf("round trip mismatch: %s", Diff(tr, back))
	}
}

func TestSerializeEscaping(t *testing.T) {
	tr := New("r")
	Append(tr.Root, tr.NewText("a < b & c > d"))
	back, err := ParseString(tr.String())
	if err != nil {
		t.Fatalf("reparse escaped text: %v", err)
	}
	if v, _ := back.Root.Value(); v != "a < b & c > d" {
		t.Errorf("escaped text round trip = %q", v)
	}
}

func TestGenerateValidates(t *testing.T) {
	d := classDTD(t)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		tr := MustGenerate(d, r, GenOptions{})
		if err := tr.Validate(d); err != nil {
			t.Fatalf("generated instance %d invalid: %v\n%s", i, err, tr)
		}
	}
}

func TestGenerateUnproductive(t *testing.T) {
	d := dtd.MustNew("r", dtd.D("r", dtd.Disj("a", "x")), dtd.D("a", dtd.Str()), dtd.D("x", dtd.Concat("x")))
	if _, err := Generate(d, rand.New(rand.NewSource(1)), GenOptions{}); err == nil {
		t.Error("Generate over inconsistent DTD should fail")
	}
}

// TestGeneratePropertyRecursive: random instances of a recursive DTD
// always validate and respect the star bound.
func TestGeneratePropertyRecursive(t *testing.T) {
	d := classDTD(t)
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := MustGenerate(d, r, GenOptions{StarMax: 2, DepthBudget: 9})
		if err := tr.Validate(d); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		valid := true
		tr.Walk(func(n *Node) {
			if n.Label == "db" || n.Label == "prereq" {
				if len(n.Children) > 2 {
					valid = false
				}
			}
		})
		return valid
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestGenerateParseValidateProperty: generate -> serialize -> parse
// round-trips to an equal tree.
func TestGenerateParseValidateProperty(t *testing.T) {
	d := classDTD(t)
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := MustGenerate(d, r, GenOptions{})
		back, err := ParseString(tr.String())
		if err != nil {
			return false
		}
		return Equal(tr, back)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestNodeByID(t *testing.T) {
	tr, _ := ParseString(`<r><a>x</a></r>`)
	n := tr.Root.Children[0]
	if got := tr.NodeByID(n.ID); got != n {
		t.Error("NodeByID did not find the child")
	}
	if got := tr.NodeByID(9999); got != nil {
		t.Error("NodeByID(9999) should be nil")
	}
}

// xmlEscapeRunes is the rune-at-a-time escaper xmlEscape replaced,
// kept as its reference.
func xmlEscapeRunes(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '\r':
			b.WriteString("&#xD;")
		default:
			b.WriteRune(r)
		}
	}
}

// TestXMLEscapeMatchesRuneLoop holds xmlEscape to the rune loop on
// random strings over markup characters, CR, multi-byte UTF-8 and
// invalid UTF-8 (stray continuation bytes, truncated sequences,
// encoded surrogates).
func TestXMLEscapeMatchesRuneLoop(t *testing.T) {
	alphabet := []string{"a", "&", "<", ">", "\r", "\n", "\u00e9", "\u4e16", "\U0001F600", "\uFFFD",
		"\x80", "\xff", "\xe4\xb8", "\xed\xa0\x80", "]]>", "&amp;"}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		var in strings.Builder
		for k := r.Intn(12); k > 0; k-- {
			in.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		s := in.String()
		var got, want strings.Builder
		xmlEscape(&got, s)
		xmlEscapeRunes(&want, s)
		if got.String() != want.String() {
			t.Fatalf("xmlEscape(%q) = %q, want %q", s, got.String(), want.String())
		}
	}
}
