package search_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dtd"
	"repro/internal/search"
)

// FuzzFind searches schema pairs given as source DTD text, a NUL byte
// and target DTD text (the checked-in corpus is small generated pairs
// written by xse-oracle -emit-corpus). It checks that every returned
// embedding validates, that every error is a typed cancellation error,
// and that Exact never proves impossible a pair QualityOrdered embeds:
// Exact's candidate lists extend the heuristic's, so its exhaustion
// would mean the pruning discarded a live candidate.
func FuzzFind(f *testing.F) {
	f.Add("<!ELEMENT a (b, c)>\n<!ELEMENT b (#PCDATA)>\n<!ELEMENT c EMPTY>\n" + "\x00" +
		"<!ELEMENT a (x, c)>\n<!ELEMENT x (b)>\n<!ELEMENT b (#PCDATA)>\n<!ELEMENT c EMPTY>\n")
	f.Add("<!ELEMENT a (b | c)>\n<!ELEMENT b EMPTY>\n<!ELEMENT c EMPTY>\n" + "\x00" +
		"<!ELEMENT r (s)*>\n<!ELEMENT s (#PCDATA)>\n")
	f.Add("<!ELEMENT a (a)*>\n" + "\x00" + "<!ELEMENT r (r | s)>\n<!ELEMENT s EMPTY>\n")
	f.Fuzz(func(t *testing.T, in string) {
		srcText, tgtText, ok := strings.Cut(in, "\x00")
		if !ok || len(in) > 4096 {
			return
		}
		src, err := dtd.Parse(srcText, "")
		if err != nil || src.Size() > 12 {
			return
		}
		tgt, err := dtd.Parse(tgtText, "")
		if err != nil || tgt.Size() > 20 {
			return
		}
		find := func(h search.Heuristic) *search.Result {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			res, err := search.FindCtx(ctx, src, tgt, nil, search.Options{Heuristic: h, Seed: 1, MaxRestarts: 4})
			if err != nil {
				if !errors.Is(err, search.ErrDeadline) && !errors.Is(err, search.ErrCanceled) {
					t.Fatalf("%s: untyped error %v", h, err)
				}
				return nil
			}
			if res.Embedding != nil {
				if verr := res.Embedding.Validate(nil); verr != nil {
					t.Fatalf("%s: returned embedding fails validation: %v", h, verr)
				}
			}
			return res
		}
		quality := find(search.QualityOrdered)
		find(search.Random)
		exact := find(search.Exact)
		if quality != nil && quality.Embedding != nil && exact != nil && exact.Exhausted {
			t.Fatalf("Exact exhausted a pair QualityOrdered embeds:\n%s\n%s", src, tgt)
		}
	})
}
