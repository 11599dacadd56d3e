package textq

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestFormatRoundTrip(t *testing.T) {
	ss := mustSchemas(t)
	src := `
Supt(e0, sales, c1).
Supt(e1, marketing, "c 2").
F(1).
`
	d, err := ParseFacts(src, ss)
	if err != nil {
		t.Fatal(err)
	}
	// schemas → text → schemas
	ss2, err := ParseSchemas(FormatSchemas(ss))
	if err != nil {
		t.Fatalf("schema round trip: %v\n%s", err, FormatSchemas(ss))
	}
	if len(ss2) != len(ss) {
		t.Fatal("schema count changed")
	}
	for n, s := range ss {
		s2 := ss2[n]
		if s2 == nil || s2.Arity() != s.Arity() {
			t.Fatalf("schema %s lost", n)
		}
		for i := range s.Attrs {
			if !s.Attrs[i].Domain.Equal(s2.Attrs[i].Domain) {
				t.Fatalf("domain of %s.%s changed", n, s.Attrs[i].Name)
			}
		}
	}
	// database → text → database
	d2, err := ParseFacts(FormatDatabase(d), ss2)
	if err != nil {
		t.Fatalf("db round trip: %v\n%s", err, FormatDatabase(d))
	}
	if !d.Equal(d2) {
		t.Fatalf("database changed:\n%v\nvs\n%v", d, d2)
	}
}

func TestQuoteIfNeeded(t *testing.T) {
	if quoteIfNeeded("abc") != "abc" || quoteIfNeeded("a b") != `"a b"` || quoteIfNeeded("") != `""` {
		t.Fatal("quoting rules wrong")
	}
}

// TestFormatUTF8RoundTrip formats random UTF-8 values — ASCII, Latin-1
// and other letters, digits, marks, symbols and spaces — as facts and
// as finite-domain values, and parses them back unchanged: the
// formatter leaves a value bare only when the lexer reads every byte
// of it as an identifier byte.
func TestFormatUTF8RoundTrip(t *testing.T) {
	for v, want := range map[string]string{"café": `"café"`, "ݗ": `"ݗ"`, "ê": "ê"} {
		if got := quoteIfNeeded(v); got != want {
			t.Errorf("quoteIfNeeded(%q) = %s, want %s", v, got, want)
		}
	}
	ranges := [][2]rune{{'a', 'z'}, {'0', '9'}, {0xa0, 0xff}, {0x100, 0x17f}, {0x370, 0x3ff},
		{0x600, 0x6ff}, {0x750, 0x77f}, {0x300, 0x36f}, {0x2000, 0x206f}, {0x3040, 0x30ff}, {0x1f600, 0x1f64f}}
	rng := rand.New(rand.NewSource(5))
	value := func() string {
		var b strings.Builder
		for n := 1 + rng.Intn(4); n > 0; n-- {
			switch rng.Intn(8) {
			case 0:
				b.WriteByte(" _-.'"[rng.Intn(5)])
			default:
				r := ranges[rng.Intn(len(ranges))]
				b.WriteRune(r[0] + rune(rng.Intn(int(r[1]-r[0]+1))))
			}
		}
		return b.String()
	}
	for trial := 0; trial < 500; trial++ {
		vals := []relation.Value{relation.Value(value()), relation.Value(value())}
		if trial == 0 {
			vals = []relation.Value{"café", "ݗ"}
		}
		if vals[0] == vals[1] {
			continue
		}
		src := "rel R(a: {" + quoteIfNeeded(string(vals[0])) + ", " + quoteIfNeeded(string(vals[1])) + "}, b)\n"
		ss, err := ParseSchemas(src)
		if err != nil {
			t.Fatalf("schemas %q do not parse: %v", src, err)
		}
		out := FormatSchemas(ss)
		ss2, err := ParseSchemas(out)
		if err != nil {
			t.Fatalf("formatted schemas do not reparse: %v\n%s", err, out)
		}
		if got := ss2["R"].Attrs[0].Domain.Values; len(got) != 2 || !slices.Contains(got, vals[0]) || !slices.Contains(got, vals[1]) {
			t.Fatalf("domain %q changed across round trip: %q", vals, got)
		}
		d := relation.NewDatabase(ss["R"])
		d.MustAdd("R", string(vals[0]), value())
		d.MustAdd("R", string(vals[1]), value())
		text := FormatDatabase(d)
		d2, err := ParseFacts(text, ss)
		if err != nil {
			t.Fatalf("formatted facts do not reparse: %v\n%s", err, text)
		}
		if !d.Equal(d2) {
			t.Fatalf("facts changed across round trip:\n%v\nvs\n%v", d, d2)
		}
	}
}

func TestFormatDeterministic(t *testing.T) {
	ss := mustSchemas(t)
	d := relation.NewDatabase(ss["Supt"])
	d.MustAdd("Supt", "b", "x", "y")
	d.MustAdd("Supt", "a", "x", "y")
	if FormatDatabase(d) != FormatDatabase(d.Clone()) {
		t.Fatal("formatting not deterministic")
	}
}
