package xmltree

import (
	"strings"
	"testing"

	"repro/internal/guard"
)

// FuzzXMLDecode is the decoder differential: on arbitrary input the
// scanner (Parse) and the encoding/xml reference (refParseLimits, see
// ref_test.go) must both fail or build equal trees, under the default
// limits and under tight ones, and the stream path (Tokenizer into
// Emitter) must fail too or write the reference tree's serialization
// byte for byte. Accepted documents must also round-trip: parse →
// String → parse yields an equal tree (value isomorphism, ids
// ignored). The checked-in corpus holds a seed for each quirk of the
// reference the scanner reproduces (testdata/fuzz/FuzzXMLDecode/quirk-*).
func FuzzXMLDecode(f *testing.F) {
	seeds := []string{
		"<a/>",
		"<a>text</a>",
		"<a><b/><c>x</c></a>",
		"<a>x<b/>y</a>",
		"<a>&lt;&amp;&gt;</a>",
		"<a><![CDATA[raw <stuff>]]></a>",
		"<a>  \n  </a>",
		"<a attr=\"ignored\"><b/></a>",
		"<a><a><a><a><a/></a></a></a></a>",
		"<ns:a xmlns:ns=\"u\"><ns:b/></ns:a>",
		"<a><b></a>",
		"<a/><b/>",
		"plain text",
		"<a>x&#xD;y</a>",
		"<a><![CDATA[x]]&gt;y]]></a>",
		"<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	tight := guard.Limits{MaxDepth: 8, MaxInputBytes: 1 << 12, MaxNodes: 64}
	f.Fuzz(func(t *testing.T, src string) {
		for _, lim := range []guard.Limits{tight, {}} {
			got, gerr := ParseLimits(strings.NewReader(src), lim)
			want, werr := refParseLimits(strings.NewReader(src), lim)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("decoders disagree under %+v on %q:\n scanner: %v\nreference: %v", lim, src, gerr, werr)
			}
			if gerr == nil && !Equal(got, want) {
				t.Fatalf("decoders build different trees under %+v on %q: %s", lim, src, Diff(got, want))
			}
			out, serr := streamCopy(NewTokenizerLimits(strings.NewReader(src), lim))
			if (serr == nil) != (werr == nil) {
				t.Fatalf("stream path and reference disagree under %+v on %q:\n stream: %v\nreference: %v", lim, src, serr, werr)
			}
			if serr == nil && out != want.String() {
				t.Fatalf("stream path writes %q, reference tree %q (input %q)", out, want.String(), src)
			}
		}
		tr, err := ParseString(src)
		if err != nil {
			return
		}
		s := tr.String()
		tr2, err := ParseString(s)
		if err != nil {
			t.Fatalf("reparse of serialization failed: %v\ninput: %q\nserialized:\n%s", err, src, s)
		}
		if !Equal(tr, tr2) {
			t.Errorf("round trip changed the tree: %s\ninput: %q\nserialized:\n%s", Diff(tr, tr2), src, s)
		}
	})
}

// streamCopy pipes a Tokenizer into an Emitter, the xmltree half of
// stream migration.
func streamCopy(z *Tokenizer) (string, error) {
	var b strings.Builder
	e := NewEmitter(&b)
	for {
		tok, err := z.Next()
		if err != nil {
			return "", err
		}
		switch tok.Kind {
		case TokStart:
			err = e.Start(tok.Name)
		case TokText:
			err = e.Text(tok.Text)
		case TokEnd:
			err = e.End()
		case TokEOF:
			err = e.Flush()
			return b.String(), err
		}
		if err != nil {
			return "", err
		}
	}
}
