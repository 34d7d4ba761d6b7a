package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is a running observability endpoint.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve starts an HTTP server on addr exposing:
//
//	/metrics       Prometheus text exposition format
//	/vars          JSON snapshot, schema-stamped (SchemaVersion)
//	/events        chronological flight-recorder dump (JSON)
//	/debug/pprof/  the standard pprof handlers (profile, heap, trace, ...)
//
// src resolves the currently observed domain at each request — a
// benchmark driver that rebuilds its tree per trial swaps an
// atomic.Pointer behind it; requests while no domain is live get 503.
// The listener is bound synchronously (so the caller learns about a
// bad/busy addr immediately, and Addr reports the resolved port for
// addr ":0"); serving then proceeds on a background goroutine until
// Close.
func Serve(addr string, src func() *Obs) (*Server, error) {
	mux := http.NewServeMux()
	withObs := func(h func(o *Obs, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			o := src()
			if o == nil {
				http.Error(w, "no observed tree is live", http.StatusServiceUnavailable)
				return
			}
			h(o, w, r)
		}
	}
	mux.HandleFunc("/metrics", withObs(func(o *Obs, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.WriteProm(w)
	}))
	mux.HandleFunc("/vars", withObs(func(o *Obs, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		o.WriteVars(w)
	}))
	mux.HandleFunc("/events", withObs(func(o *Obs, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Schema int     `json:"schema"`
			Events []Event `json:"events"`
		}{Schema: SchemaVersion, Events: o.Events()})
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{srv: &http.Server{Handler: mux}, ln: ln}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the server's bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down, waiting briefly for in-flight requests.
func (s *Server) Close() error {
	done := make(chan error, 1)
	go func() { done <- s.srv.Close() }()
	select {
	case err := <-done:
		return err
	case <-time.After(2 * time.Second):
		return s.ln.Close()
	}
}
