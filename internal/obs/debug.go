package obs

import (
	"net/http"
	"net/http/pprof"
	"time"
)

// NewHTTPServer builds an http.Server with the connection limits every
// listener in this repository runs under: a client that stalls its
// request header or idles on a keep-alive connection is dropped. There
// is deliberately no WriteTimeout — NDJSON query streams and
// /debug/events?follow=1 are long-lived responses.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// DebugMux builds the opt-in debug server both radserve and radsworker
// hang behind -debug-addr: /metrics (Prometheus text), /healthz (the
// caller's health payload), and the stdlib net/http/pprof suite under
// /debug/pprof/. healthz may be nil, in which case /healthz returns
// 200 "ok".
func DebugMux(reg *Registry, healthz http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	if healthz == nil {
		healthz = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte("ok\n"))
		})
	}
	mux.Handle("/healthz", healthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
