package obs

import (
	"context"
	"runtime/trace"
)

// runtime/trace user-region names emitted around the engine's
// operation lifecycle. `go tool trace` groups regions by these names
// under the "User-defined regions" view.
const (
	// RegionOp spans one dictionary operation end to end (all paths,
	// including retries and the fallback).
	RegionOp = "htmtree/op"
	// RegionFallback spans a TLE lock acquisition, the wait for the
	// global lock. A long RegionFallback inside a RegionOp is a convoy,
	// visible directly in the trace viewer.
	RegionFallback = "htmtree/fallback"
)

// traceCtx is the shared context regions attach to; the engine has no
// per-operation context (that would allocate), so regions all belong to
// the background task.
var traceCtx = context.Background()

// StartOpRegion opens the per-operation trace region, or returns nil
// when tracing is off. The enabled check inlines into the caller, so
// the untraced per-operation cost is one atomic load — not a
// trace.StartRegion call. End with EndRegion (nil-safe).
func StartOpRegion() *trace.Region {
	if !trace.IsEnabled() {
		return nil
	}
	return trace.StartRegion(traceCtx, RegionOp)
}

// StartFallbackRegion opens the fallback-acquisition trace region, or
// returns nil when tracing is off.
func StartFallbackRegion() *trace.Region {
	if !trace.IsEnabled() {
		return nil
	}
	return trace.StartRegion(traceCtx, RegionFallback)
}

// EndRegion closes a region from Start*Region, tolerating the nil a
// disabled start returned.
func EndRegion(r *trace.Region) {
	if r != nil {
		r.End()
	}
}
