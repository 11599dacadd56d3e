package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// Request decoding. A request body is read once, into a buffer sized
// from Content-Length, and decoded in one pass over its structure by
// a reader driven by a field table built from the request type's json
// tags, so the wire format keeps one source of truth. The reader
// accepts exactly the bodies that encoding/json's Decoder with
// DisallowUnknownFields accepts for the request types and yields the
// same value (FuzzDecodeBody compares the two); only error texts
// differ. See DESIGN.md, "Request decoding".

// DecodeRequest reads r's body, at most limit bytes, and decodes the
// JSON object in it into v, a pointer to a request struct. Unknown
// keys are an error. Bytes after the first value are read and buffered,
// up to the limit, but not parsed. Like encoding/json's Decoder, it
// accepts a body whose first value ends before the read stopped, at the
// limit or on a read error; when trailing bytes run past the limit the
// request is still served, and net/http closes the connection after it.
// Every POST endpoint of the server decodes its body with it: the
// admitted ones before admission, and catalog registration.
func DecodeRequest(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	body, rerr := readBody(w, r, limit)
	d := decoder{b: body, cut: rerr != nil}
	err := d.decode(v)
	if err != nil && rerr != nil {
		return rerr
	}
	return err
}

// maxPresize caps the buffer readBody allocates before any byte has
// arrived: Content-Length is the client's claim, and a claim of the
// whole limit must not buy that much memory per idle connection.
const maxPresize = 64 << 10

// readBody reads r's whole body through http.MaxBytesReader, which
// also tells net/http to close the connection once the limit trips,
// into a buffer sized from Content-Length when the client sent one
// (up to maxPresize; a longer body grows it as it arrives). On a read
// error it returns the bytes read before it too.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	size := r.ContentLength
	if size < 0 || size > limit {
		size = 512
	}
	size = min(size, maxPresize)
	// The spare byte takes the read that reports io.EOF without a grow.
	buf := make([]byte, 0, size+1)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// field is one JSON key of a request type.
type field struct {
	name  string
	key   []byte // name, for bytes.EqualFold
	index []int  // reflect field path, through embedded structs
	kind  reflect.Kind
	elem  *fieldTable // the pointee's table, for *struct fields
}

// fieldTable lists the JSON keys of one struct type.
type fieldTable struct {
	typ    reflect.Type
	fields []field
}

// fieldTables caches one table per request type.
var fieldTables sync.Map // reflect.Type → *fieldTable

func tableOf(t reflect.Type) *fieldTable {
	if ft, ok := fieldTables.Load(t); ok {
		return ft.(*fieldTable)
	}
	ft := &fieldTable{typ: t}
	ft.add(t, nil)
	got, _ := fieldTables.LoadOrStore(t, ft)
	return got.(*fieldTable)
}

// add appends the keys of struct type t, whose value sits at path at
// inside the table's type. Fields of an untagged embedded struct are
// promoted, as encoding/json does. The request types are fixed in this
// package, so a field shape the reader does not cover, or two fields
// with one key, is a bug and panics when the table is built.
func (ft *fieldTable) add(t reflect.Type, at []int) {
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		index := append(at[:len(at):len(at)], i)
		if sf.Anonymous && name == "" {
			if sf.Type.Kind() != reflect.Struct {
				panic(fmt.Sprintf("server: %s embeds %s, which request decoding does not cover", ft.typ, sf.Type))
			}
			ft.add(sf.Type, index)
			continue
		}
		if !sf.IsExported() {
			continue
		}
		if opts != "" && opts != "omitempty" {
			panic(fmt.Sprintf("server: %s.%s has json option %q, which request decoding does not cover", ft.typ, sf.Name, opts))
		}
		if name == "" {
			name = sf.Name
		}
		f := field{name: name, key: []byte(name), index: index, kind: sf.Type.Kind()}
		switch f.kind {
		case reflect.String, reflect.Bool, reflect.Int, reflect.Int64, reflect.Float64:
		case reflect.Slice:
			if sf.Type != reflect.TypeOf([]string(nil)) {
				f.kind = reflect.Invalid
			}
		case reflect.Pointer:
			if sf.Type.Elem().Kind() != reflect.Struct {
				f.kind = reflect.Invalid
				break
			}
			f.elem = tableOf(sf.Type.Elem())
		default:
			f.kind = reflect.Invalid
		}
		if f.kind == reflect.Invalid {
			panic(fmt.Sprintf("server: %s.%s has type %s, which request decoding does not cover", ft.typ, sf.Name, sf.Type))
		}
		for _, g := range ft.fields {
			if g.name == name {
				panic(fmt.Sprintf("server: %s has two fields with json key %q", ft.typ, name))
			}
		}
		ft.fields = append(ft.fields, f)
	}
}

// lookup finds key's field as encoding/json does: an exact match
// first, then a case-insensitive one (Unicode simple folding).
func (ft *fieldTable) lookup(key []byte) *field {
	for i := range ft.fields {
		if ft.fields[i].name == string(key) {
			return &ft.fields[i]
		}
	}
	for i := range ft.fields {
		if bytes.EqualFold(ft.fields[i].key, key) {
			return &ft.fields[i]
		}
	}
	return nil
}

// decoder reads one JSON value from b. An unknown key or a value of
// the wrong type ends the decode with an error, as encoding/json's
// Decoder with DisallowUnknownFields rejects it.
type decoder struct {
	b []byte
	p int
	// cut says b is only a prefix of the body: the read stopped at the
	// size limit or on an error.
	cut bool
}

// decode decodes the top-level value into v, a pointer to a struct.
func (d *decoder) decode(v any) error {
	rv := reflect.ValueOf(v).Elem()
	t := tableOf(rv.Type())
	d.ws()
	switch {
	case d.p == len(d.b):
		return errors.New("empty body")
	case d.b[d.p] == '{':
		return d.object(t, rv)
	case d.b[d.p] == 'n':
		// null leaves the request zero. Decoder.Decode reads nothing
		// after the literal, but it needs one more byte, or the end of
		// the body, to know the literal has ended.
		if err := d.literal("null"); err != nil {
			return err
		}
		if d.cut && d.p == len(d.b) {
			return d.syntax("")
		}
		return nil
	}
	return fmt.Errorf("cannot decode a JSON %s into %s", d.kindAt(), t.typ)
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.p < len(d.b) {
		switch d.b[d.p] {
		case ' ', '\t', '\n', '\r':
			d.p++
		default:
			return
		}
	}
}

// peek returns the byte at the read position, or 0 at the end.
func (d *decoder) peek() byte {
	if d.p < len(d.b) {
		return d.b[d.p]
	}
	return 0
}

// syntax reports a syntax error at the read position; ctx says where
// in the grammar it is.
func (d *decoder) syntax(ctx string) error {
	if d.p >= len(d.b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.b[d.p], ctx, d.p)
}

// kindAt names the kind of JSON value that starts at the read position.
func (d *decoder) kindAt() string {
	switch c := d.peek(); {
	case c == '"':
		return "string"
	case c == '{':
		return "object"
	case c == '[':
		return "array"
	case c == 't' || c == 'f':
		return "bool"
	case c == 'n':
		return "null"
	case c == '-' || ('0' <= c && c <= '9'):
		return "number"
	}
	return "value"
}

// object decodes the object at the read position into v.
func (d *decoder) object(t *fieldTable, v reflect.Value) error {
	d.p++ // '{'
	d.ws()
	if d.peek() == '}' {
		d.p++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.p++
		d.ws()
		if f := t.lookup(key); f != nil {
			err = d.field(f, v.FieldByIndex(f.index))
		} else {
			err = fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.p++
			d.ws()
		case '}':
			d.p++
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// field decodes the value at the read position into fv, the value of
// field f. As in encoding/json, null leaves a scalar unchanged and
// sets a pointer or a slice to nil, and a repeated key decodes into
// what the previous one left.
func (d *decoder) field(f *field, fv reflect.Value) error {
	switch c := d.peek(); {
	case c == 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		if f.kind == reflect.Pointer || f.kind == reflect.Slice {
			fv.SetZero()
		}
		return nil
	case f.kind == reflect.String && c == '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		fv.SetString(s)
		return nil
	case f.kind == reflect.Bool && (c == 't' || c == 'f'):
		lit := "true"
		if c == 'f' {
			lit = "false"
		}
		if err := d.literal(lit); err != nil {
			return err
		}
		fv.SetBool(c == 't')
		return nil
	case (f.kind == reflect.Int || f.kind == reflect.Int64) && (c == '-' || ('0' <= c && c <= '9')):
		num, err := d.number()
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(num), 10, 64)
		if err != nil || fv.OverflowInt(n) {
			return fmt.Errorf("cannot decode number %s into field %q of type %s", num, f.name, fv.Type())
		}
		fv.SetInt(n)
		return nil
	case f.kind == reflect.Float64 && (c == '-' || ('0' <= c && c <= '9')):
		num, err := d.number()
		if err != nil {
			return err
		}
		x, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return fmt.Errorf("cannot decode number %s into field %q of type %s", num, f.name, fv.Type())
		}
		fv.SetFloat(x)
		return nil
	case f.kind == reflect.Slice && c == '[':
		return d.strings(f, fv.Addr().Interface().(*[]string))
	case f.kind == reflect.Pointer && c == '{':
		if fv.IsNil() {
			fv.Set(reflect.New(f.elem.typ))
		}
		return d.object(f.elem, fv.Elem())
	}
	return fmt.Errorf("cannot decode a JSON %s into field %q of type %s", d.kindAt(), f.name, fv.Type())
}

// strings decodes the array at the read position into *sp the way
// encoding/json fills a slice: element i decodes into the i-th slot of
// the slice already there (null keeps it), the result is cut to the
// array's length, and an empty array gives an empty, non-nil slice.
func (d *decoder) strings(f *field, sp *[]string) error {
	d.p++ // '['
	s := *sp
	i := 0
	d.ws()
	if d.peek() == ']' {
		d.p++
	} else {
		for {
			if i >= len(s) {
				if i < cap(s) {
					s = s[:i+1]
				} else {
					s = append(s, "")
				}
			}
			switch d.peek() {
			case '"':
				str, err := d.str()
				if err != nil {
					return err
				}
				s[i] = str
			case 'n':
				if err := d.literal("null"); err != nil {
					return err
				}
			default:
				return fmt.Errorf("cannot decode a JSON %s into an element of field %q", d.kindAt(), f.name)
			}
			i++
			d.ws()
			c := d.peek()
			if c == ']' {
				d.p++
				break
			}
			if c != ',' {
				return d.syntax("after array element")
			}
			d.p++
			d.ws()
		}
	}
	if i == 0 {
		s = []string{}
	}
	*sp = s[:i]
	return nil
}

// literal consumes lit (null, true or false) at the read position.
func (d *decoder) literal(lit string) error {
	rest := d.b[d.p:]
	for i := 0; i < len(lit); i++ {
		if i == len(rest) {
			d.p = len(d.b)
			return d.syntax("")
		}
		if rest[i] != lit[i] {
			d.p += i
			return d.syntax("in literal " + lit)
		}
	}
	d.p += len(lit)
	return nil
}

// number consumes a JSON number at the read position and returns its
// bytes.
func (d *decoder) number() ([]byte, error) {
	b, i := d.b, d.p
	digits := func(ctx string) error {
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			d.p = i
			return d.syntax(ctx)
		}
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return nil
	}
	if b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if err := digits("in numeric literal"); err != nil {
		return nil, err
	}
	if i < len(b) && b[i] == '.' {
		i++
		if err := digits("after decimal point in numeric literal"); err != nil {
			return nil, err
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if err := digits("in exponent of numeric literal"); err != nil {
			return nil, err
		}
	}
	num := b[d.p:i]
	d.p = i
	return num, nil
}

// plain marks the bytes a string copies through unchanged: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainRun returns the index of the first byte at or after i in s that
// is not plain, or len(s).
func plainRun(s []byte, i int) int {
	for i < len(s) && plain[s[i]] {
		i++
	}
	return i
}

// strEnd returns the index of the quote that closes the string whose
// contents run from i, after checking its escapes and that it holds no
// control bytes. It unescapes nothing.
func (d *decoder) strEnd(i int) (int, error) {
	b := d.b
	for i = plainRun(b, i); i < len(b); i = plainRun(b, i) {
		c := b[i]
		switch {
		case c >= utf8.RuneSelf:
			i++
		case c == '"':
			return i, nil
		case c == '\\':
			if i+1 == len(b) {
				d.p = len(b)
				return 0, d.syntax("")
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k == len(b) {
						d.p = k
						return 0, d.syntax("")
					}
					if hexVal(b[k]) < 0 {
						d.p = k
						return 0, d.syntax("in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				d.p = i + 1
				return 0, d.syntax("in string escape code")
			}
		default:
			d.p = i
			return 0, d.syntax("in string literal")
		}
	}
	d.p = len(b)
	return 0, d.syntax("")
}

// str decodes the string at the read position. A string without
// escapes or non-ASCII bytes is copied once; any other is checked by
// strEnd, which sizes the result, and then unescaped into it run by run.
func (d *decoder) str() (string, error) {
	b := d.b
	start := d.p + 1
	i := plainRun(b, start)
	if i < len(b) && b[i] == '"' {
		d.p = i + 1
		return string(b[start:i]), nil
	}
	end, err := d.strEnd(i)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.Grow(end - start)
	unescape(&sb, b[start:end])
	d.p = end + 1
	return sb.String(), nil
}

// key decodes the object key at the read position. A key without
// escapes aliases the body.
func (d *decoder) key() ([]byte, error) {
	b := d.b
	start := d.p + 1
	i := plainRun(b, start)
	if i < len(b) && b[i] == '"' {
		d.p = i + 1
		return b[start:i], nil
	}
	s, err := d.str()
	return []byte(s), err
}

// unescape writes the contents s of a string that strEnd accepted,
// unescaped the way encoding/json does: an unpaired UTF-16 surrogate
// and each byte of invalid UTF-8 become U+FFFD.
func unescape(w *strings.Builder, s []byte) {
	for i := 0; i < len(s); {
		j := plainRun(s, i)
		w.Write(s[i:j])
		if i = j; i == len(s) {
			return
		}
		if c := s[i]; c >= utf8.RuneSelf {
			r, n := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && n == 1 {
				w.WriteRune(utf8.RuneError)
			} else {
				w.Write(s[i : i+n])
			}
			i += n
			continue
		}
		// s[i] is a backslash: strEnd checked the escape.
		switch c := s[i+1]; c {
		case 'b':
			w.WriteByte('\b')
		case 'f':
			w.WriteByte('\f')
		case 'n':
			w.WriteByte('\n')
		case 'r':
			w.WriteByte('\r')
		case 't':
			w.WriteByte('\t')
		case 'u':
			r := u4(s[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				if r2 := u4(s[i:]); r2 >= 0 {
					if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
						w.WriteRune(pair)
						i += 6
						continue
					}
				}
				r = utf8.RuneError
			}
			w.WriteRune(r)
			continue
		default: // '"', '\\', '/'
			w.WriteByte(c)
		}
		i += 2
	}
}

// u4 decodes the \uXXXX escape at the start of s, or returns -1 if s
// does not start with one.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		v := hexVal(c)
		if v < 0 {
			return -1
		}
		r = r<<4 | v
	}
	return r
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}
