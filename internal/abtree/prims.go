package abtree

import (
	"htmtree/internal/engine"
	"htmtree/internal/htm"
)

// prims is one operation attempt's execution context: the shared LLX/SCX
// mode switch (engine/prims.go) over this tree's nodes, plus the handle
// whose scratch and node pools the attempt works in.
type prims struct {
	engine.Prims[Node]
	h *Handle
}

// prims returns the context of one attempt at the handle's own operation:
// arguments from, and the result into, the handle scratch.
func (h *Handle) prims(m engine.Mode, tx *htm.Tx) *prims {
	return &prims{Prims: h.Prims(m, tx), h: h}
}
