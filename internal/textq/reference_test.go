package textq

import (
	"testing"

	"repro/internal/relation"
)

// referenceParseDatabase is the fact parser ParseFacts replaced: the
// query lexer and its one-token-lookahead parser read each fact into
// terms, and each fact is added as a tuple through Database.Add. It is
// the reference FuzzFactScanner compares ParseFacts with: the same
// databases, or the same error text.
func referenceParseDatabase(src string, schemas map[string]*relation.Schema) (*relation.Database, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var ss []*relation.Schema
	for _, s := range schemas {
		ss = append(ss, s)
	}
	d := relation.NewDatabase(ss...)
	for p.tok.kind != tokEOF {
		name, err := p.expect(tokIdent, "relation name")
		if err != nil {
			return nil, err
		}
		args, err := p.termList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDot, "'.'"); err != nil {
			return nil, err
		}
		tup := make(relation.Tuple, len(args))
		for i, a := range args {
			// Facts carry constants only; identifiers that look like
			// variables are read as constants of the same spelling.
			if a.IsVar {
				tup[i] = relation.Value(a.Name)
			} else {
				tup[i] = a.Val
			}
		}
		if err := d.Add(name.text, tup); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// scannerSchemas adds a zero-arity relation to the fuzz schemas, so
// "Name()." parses somewhere.
func scannerSchemas(t *testing.T) map[string]*relation.Schema {
	ss := fuzzContext(t)
	ss["Z"] = relation.NewSchema("Z")
	return ss
}

// FuzzFactScanner compares ParseFacts with the reference parser on
// arbitrary sources: both succeed with Equal databases, or both fail
// with the same error text.
func FuzzFactScanner(f *testing.F) {
	for _, seed := range factScannerSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		compareWithReference(t, src, scannerSchemas(t))
	})
}

// factScannerSeeds covers the grammar corners where a hand-written
// scanner could drift from the lexer: identifier bytes outside ASCII,
// quoted values holding grammar characters, error precedence after a
// fact, empty tuples, comments, line ends and uppercase constants.
var factScannerSeeds = []string{
	"Supt(e0, sales, c1).\nF(1).\n",
	"Supt(caf\xc3\xa9, \xc2\xa9, \xd7x).",
	"Supt(\xff\xaa\xb5, d\xc3\x97, c).",
	"Supt(e0, 'a#b', \"c,d\").\nSupt('x.y', \"p)q\", '(').",
	"F(2). !",
	"F(2). <x",
	"F(2). 'open",
	"F(2).\n!",
	"Supt(e0, d). \"",
	"Nope(a). :",
	"Z().\nZ().\n",
	"Supt().",
	"Supt(e0, d, c). # trailing comment",
	"# only a comment",
	"Supt(e0, d, c).\r\nSupt(e1, d, c).\r\n",
	"Supt(E0, Sales, C_1).\nManage(_x, X).",
	"Supt(e0, d, c)",
	"Supt(e0, d, c),",
	"Supt(e0, d,).",
	"Supt e0.",
	"Supt(e0 = d).",
	"Supt(e0, d :- c).",
	"Supt(e0, 'line\nbreak', c).",
	"Supt(a, b, c).\n\n  Cust(c1, Ann, 01, 908, 5550001).\nF(0).",
	"(",
	"Supt(a, b, c). Supt(a, b, c). Supt(a, b, d).",
	"\x00",
	"",
}

func compareWithReference(t *testing.T, src string, ss map[string]*relation.Schema) {
	t.Helper()
	got, gotErr := ParseFacts(src, ss)
	want, wantErr := referenceParseDatabase(src, ss)
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("ParseFacts(%q): error %v, reference error %v", src, gotErr, wantErr)
		}
	case !got.Equal(want):
		t.Fatalf("ParseFacts(%q) = %v, reference %v", src, got, want)
	}
}

// TestFactScannerMatchesReference runs the fuzz seeds, plus every
// one-byte truncation of a few of them, as a plain test.
func TestFactScannerMatchesReference(t *testing.T) {
	ss := scannerSchemas(t)
	for _, src := range factScannerSeeds {
		for i := 0; i <= len(src); i++ {
			compareWithReference(t, src[:i], ss)
		}
	}
}
