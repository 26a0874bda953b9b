package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"

	"repro/internal/guard"
)

// TestNameTables checks the name character classes against the
// reference decoder for every code point: r may start a name exactly
// when encoding/xml accepts "<r/>", and continue one exactly when it
// accepts "<ar/>".
func TestNameTables(t *testing.T) {
	accepts := func(doc string) bool {
		d := xml.NewDecoder(strings.NewReader(doc))
		for {
			if _, err := d.Token(); err != nil {
				return err == io.EOF
			}
		}
	}
	// The classes end in the BMP; the planes above it are sampled.
	for r := rune(0); r <= utf8.MaxRune; r += max(1, (r>>16)*97) {
		if !utf8.ValidRune(r) || r == '/' || r == '>' {
			continue
		}
		if r < utf8.RuneSelf && !nameByte[r] {
			continue // ends the name; the scanner never reads it as part of one
		}
		enc := []byte(string(r))
		if got, want := isName(enc), accepts("<"+string(r)+"/>"); got != want {
			t.Fatalf("name start %U: scanner %v, reference %v", r, got, want)
		}
		if got, want := isName(append([]byte("a"), enc...)), accepts("<a"+string(r)+"/>"); got != want {
			t.Fatalf("name character %U: scanner %v, reference %v", r, got, want)
		}
	}
}

// TestScannerQuirks pins what the scanner makes of the reference
// decoder's corner cases: the PCDATA of the root's first child text
// node, or an error.
func TestScannerQuirks(t *testing.T) {
	const fail = "<error>"
	cases := []struct{ name, doc, text string }{
		{"crlf", "<a>x\r\ny\rz\r\r\nw</a>", "x\ny\nz\n\nw"},
		{"cr-ref-keeps-lf", "<a>x&#xD;\ny</a>", "x\r\ny"},
		{"cr-in-cdata", "<a><![CDATA[x\r\ny]]></a>", "x\ny"},
		{"cdata-close-in-text", "<a>x]]>y</a>", fail},
		{"cdata-close-split-by-comment", "<a>x]]<!-- c -->>y</a>", "x]]>y"},
		{"cdata-close-after-ref", "<a>]&#93;>y</a>", "]]>y"},
		{"brackets-in-cdata", "<a><![CDATA[x]]]]></a>", "x]]"},
		{"charref-nul", "<a>&#0;</a>", fail},
		{"charref-surrogate", "<a>&#xD800;</a>", "\uFFFD"},
		{"charref-too-big", "<a>&#x110000;</a>", fail},
		{"charref-upper-x", "<a>&#X41;</a>", fail},
		{"charref-empty", "<a>&#;</a>", fail},
		{"charref-decimal", "<a>&#65;&#x42;&#x0043;</a>", "ABC"},
		{"undefined-entity", "<a>&nbsp;</a>", fail},
		{"entity-no-semicolon", "<a>&amp </a>", fail},
		{"decl-latin1", `<?xml version="1.0" encoding="ISO-8859-1"?><a>t</a>`, fail},
		{"decl-version", `<?xml version="1.1"?><a>t</a>`, fail},
		{"decl-utf8", `<?xml version='1.0' encoding='UTF-8'?><a>t</a>`, "t"},
		{"doctype-quoted-gt", `<!DOCTYPE a [<!ENTITY e "x>y"><!-- > --><!ELEMENT a (#PCDATA)>]><a>t</a>`, "t"},
		{"attr-unquoted", "<a x=1>t</a>", fail},
		{"attr-duplicate", `<a x="1" x='2'>t</a>`, "t"},
		{"attr-lt", `<a x="<">t</a>`, fail},
		{"attr-bad-entity", `<a x="&bogus;">t</a>`, fail},
		{"attr-cdata-close", `<a x="]]>">t</a>`, "t"},
		{"bom", "\xEF\xBB\xBF<a>t</a>", "t"},
		{"bom-not-at-start", " \xEF\xBB\xBF<a>t</a>", fail},
		{"end-tag-space", "<a>t</a >", "t"},
		{"end-tag-prefix-mismatch", "<p:a>t</q:a>", fail},
		{"name-invalid-utf8", "<a\xff>t</a\xff>", fail},
		{"text-invalid-utf8", "<a>x\xffy</a>", fail},
		{"text-control-char", "<a>x\x01y</a>", fail},
		{"prefixed-local-digit", "<A:0>t</A:0>", fail},
		{"prefixed-with-xmlns", `<ns:a xmlns:ns="u">t</ns:a>`, "t"},
		{"two-colons", "<a:b:c>t</a:b:c>", fail},
		{"leading-colon", "<:a>t</:a>", "t"},
		{"comment-double-dash", "<a>t<!-- x -- y --></a>", fail},
		{"pi-in-text", "<a>x<?p d?>y</a>", "xy"},
		{"unicode-space-trimmed", "<a>\u00a0t\u3000</a>", "t"},
		{"text-before-root", "x<a>t</a>", fail},
		{"text-after-root", "<a>t</a>x", fail},
		{"nbsp-after-root", "<a>t</a>\u00a0", "t"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ParseString(tc.doc)
			_, rerr := refParseLimits(strings.NewReader(tc.doc), guard.Limits{})
			if (err == nil) != (rerr == nil) {
				t.Fatalf("scanner error %v, reference error %v", err, rerr)
			}
			if tc.text == fail {
				if err == nil {
					t.Fatalf("accepted %q, want an error", tc.doc)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if v, _ := tr.Root.Value(); v != tc.text {
				t.Fatalf("text = %q, want %q", v, tc.text)
			}
		})
	}
}

// bigDoc is a document over several refill buffers whose names, text,
// references and multi-byte characters land on every buffer offset.
func bigDoc(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString("<?xml version=\"1.0\"?>\n<!DOCTYPE root>\n<root>\n")
	pieces := []string{"plain", "&amp;", "&#x4E16;", "\u4e16\u754c", "a\r\nb", "]]", "<![CDATA[c<d]]>", "<!--x-->", "\u00a0"}
	for b.Len() < 3*scanBufSize {
		name := fmt.Sprintf("e%s%d", strings.Repeat("n", r.Intn(40)), r.Intn(5))
		fmt.Fprintf(&b, "  <%s k=\"v&lt;%d\">", name, r.Intn(9))
		for k := r.Intn(4); k >= 0; k-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		fmt.Fprintf(&b, "</%s>\n", name)
	}
	b.WriteString("</root>\n")
	return b.String()
}

// TestScannerRefillBoundaries runs documents through readers that
// return one byte or a few bytes per call, so every token straddles a
// refill somewhere, and holds the result to the reference.
func TestScannerRefillBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	docs := []string{bigDoc(r), bigDoc(r)}
	for _, tc := range streamDocs {
		docs = append(docs, tc.doc)
	}
	readers := map[string]func(string) io.Reader{
		"whole":    func(s string) io.Reader { return strings.NewReader(s) },
		"one-byte": func(s string) io.Reader { return iotest.OneByteReader(strings.NewReader(s)) },
		"half":     func(s string) io.Reader { return iotest.HalfReader(strings.NewReader(s)) },
	}
	for i, doc := range docs {
		want, err := refParseLimits(strings.NewReader(doc), guard.Limits{})
		if err != nil {
			t.Fatalf("doc %d: reference: %v", i, err)
		}
		for name, open := range readers {
			got, err := Parse(open(doc))
			if err != nil {
				t.Fatalf("doc %d, %s reader: %v", i, name, err)
			}
			if !Equal(got, want) {
				t.Fatalf("doc %d, %s reader: %s", i, name, Diff(got, want))
			}
		}
	}
}

// TestScannerReadError checks that a failing reader's error reaches
// the caller wrapped, not as a syntax error.
func TestScannerReadError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Parse(io.MultiReader(strings.NewReader("<a>"), iotest.ErrReader(boom)))
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want it to wrap %v", err, boom)
	}
}

// TestScannerSyntaxErrorLine checks that syntax errors carry the line
// number across refills.
func TestScannerSyntaxErrorLine(t *testing.T) {
	doc := "<a>\n" + strings.Repeat("<b>x</b>\n", 10000) + "<b>&bogus;</b></a>"
	_, err := Parse(iotest.HalfReader(strings.NewReader(doc)))
	if err == nil || !strings.Contains(err.Error(), "line 10002") {
		t.Fatalf("error = %v, want one on line 10002", err)
	}
}
