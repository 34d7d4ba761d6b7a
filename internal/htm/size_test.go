package htm_test

import (
	"testing"
	"unsafe"

	"htmtree/internal/htm"
	"htmtree/internal/llxscx"
)

// TestCellSizes pins what a cell costs: a version word and its value,
// and nothing else — no cell says which clock stamps it, since there is
// one (htm.Clock). Every node of every tree is built of these, so a
// field added to a cell grows them all; this fails by name first.
func TestCellSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"htm.Word", unsafe.Sizeof(htm.Word{}), 16},
		{"htm.Ref[int]", unsafe.Sizeof(htm.Ref[int]{}), 16},
		{"htm.Pair", unsafe.Sizeof(htm.Pair{}), 24},
		{"llxscx.Hdr", unsafe.Sizeof(llxscx.Hdr{}), 32},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
