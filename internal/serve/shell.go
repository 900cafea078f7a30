package serve

import (
	"context"
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"time"
)

// Shell is the HTTP plumbing traced and tracerouter share: the drain
// gate, the expvar map /metrics serializes, /healthz, and the
// listener's lifecycle. A tier embeds it, registers its counters and
// routes, and holds a gate slot for every request it works on.
type Shell struct {
	gate        *gate
	vars        *expvar.Map
	writeErrors *expvar.Int // response_write_errors_total
	mux         *http.ServeMux
	httpSrv     *http.Server
	drained     func() // when set, runs between the drain and the HTTP stop
}

// NewShell builds a shell whose gate admits at most limit concurrent
// requests (no limit when limit <= 0), with /healthz and /metrics
// routed and response_write_errors_total registered.
func NewShell(limit int) *Shell {
	sh := &Shell{gate: newGate(limit), vars: new(expvar.Map).Init(), mux: http.NewServeMux()}
	sh.writeErrors = sh.Counter("response_write_errors_total")
	sh.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		sh.WriteText(w, http.StatusOK, "ok")
	})
	sh.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		sh.WriteBody(w, []byte(sh.vars.String()))
	})
	sh.httpSrv = &http.Server{Handler: sh.mux, ReadHeaderTimeout: 10 * time.Second}
	return sh
}

// Counter registers a counter under name in the metrics map.
func (sh *Shell) Counter(name string) *expvar.Int {
	v := new(expvar.Int)
	sh.vars.Set(name, v)
	return v
}

// Gauge registers a value computed at scrape time under name.
func (sh *Shell) Gauge(name string, f func() any) {
	sh.vars.Set(name, expvar.Func(f))
}

// HandleFunc adds a tier route to the mux Handler returns.
func (sh *Shell) HandleFunc(pattern string, f http.HandlerFunc) { sh.mux.HandleFunc(pattern, f) }

// Handler returns the mux: /healthz, /metrics and the tier's routes.
func (sh *Shell) Handler() http.Handler { return sh.mux }

// Serve accepts connections on ln until Shutdown. A clean shutdown
// returns nil.
func (sh *Shell) Serve(ln net.Listener) error {
	err := sh.httpSrv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// PublishExpvar registers the metrics map in the process-wide expvar
// registry under name. Call at most once per name per process (expvar
// forbids duplicate registration).
func (sh *Shell) PublishExpvar(name string) {
	expvar.Publish(name, sh.vars)
}

// Shutdown drains the tier: the gate closes to new requests, requests
// holding a slot finish writing, then the HTTP server (if Serve was
// used) stops. It returns ctx's error if draining outlives ctx.
func (sh *Shell) Shutdown(ctx context.Context) error {
	sh.gate.close()
	if err := sh.gate.wait(ctx); err != nil {
		return err
	}
	if sh.drained != nil {
		sh.drained()
	}
	return sh.httpSrv.Shutdown(ctx)
}

// Enter takes a gate slot, false when draining or full; Leave returns it.
func (sh *Shell) Enter() bool { return sh.gate.acquire() == gateOK }

// Leave returns the slot Enter took.
func (sh *Shell) Leave() { sh.gate.release() }

// Draining reports whether Shutdown has begun.
func (sh *Shell) Draining() bool { return sh.gate.isClosed() }

// WriteDraining answers a request that arrived after Shutdown began.
func (sh *Shell) WriteDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, "shutting down", http.StatusServiceUnavailable)
}

// WriteText writes a small plain-text response.
func (sh *Shell) WriteText(w http.ResponseWriter, code int, body string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	sh.WriteBody(w, []byte(body+"\n"))
}

// WriteJSON writes v as a JSON response.
func (sh *Shell) WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		sh.writeErrors.Add(1)
	}
}

// WriteBody writes body, counting a failed write (client gone).
func (sh *Shell) WriteBody(w http.ResponseWriter, body []byte) {
	if _, err := w.Write(body); err != nil {
		sh.writeErrors.Add(1)
	}
}
