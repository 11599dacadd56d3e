package relation

import (
	"fmt"
	"testing"
	"unsafe"
)

// within reports whether the bytes of s lie inside those of src.
func within(s, src string) bool {
	if len(s) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return p >= lo && p < lo+uintptr(len(src))
}

// TestInternDoesNotPinSource interns substrings of a larger text, one
// through Intern and a batch through InternAll (a repeated value among
// them), and checks that the dictionary stores copies: a stored value
// that aliased its source would keep the whole text alive.
func TestInternDoesNotPinSource(t *testing.T) {
	d := NewDict()
	src := fmt.Sprintf("R(pin-a, pin-b, pin-c, pin-b) # %p", t)
	id := d.Intern(Value(src[2:7]))
	if v := d.Value(id); v != "pin-a" || within(string(v), src) {
		t.Fatalf("Intern stored %q aliasing its source: %v", v, within(string(v), src))
	}
	vals := []Value{Value(src[9:14]), Value(src[2:7]), Value(src[16:21]), Value(src[23:28])}
	ids := make([]int32, len(vals))
	d.InternAll(ids, vals)
	if ids[1] != id || ids[3] != ids[0] || ids[0] == ids[2] || d.Len() != 3 {
		t.Fatalf("InternAll ids %v (Intern gave %d), %d values", ids, id, d.Len())
	}
	for i, v := range vals {
		got := d.Value(ids[i])
		if got != v {
			t.Fatalf("InternAll: id %d holds %q, want %q", ids[i], got, v)
		}
		if within(string(got), src) {
			t.Fatalf("InternAll stored %q aliasing its source", got)
		}
		if back, ok := d.ID(v); !ok || back != ids[i] {
			t.Fatalf("ID(%q) = %d, %v; want %d", v, back, ok, ids[i])
		}
	}
	// A batch of hits only takes the read path and changes nothing.
	again := make([]int32, len(vals))
	d.InternAll(again, vals)
	if fmt.Sprint(again) != fmt.Sprint(ids) || d.Len() != 3 {
		t.Fatalf("second InternAll = %v, want %v", again, ids)
	}
}
