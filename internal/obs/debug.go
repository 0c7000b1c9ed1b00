package obs

import (
	"bytes"
	"context"
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// DefaultDrainTimeout bounds how long a stopping debug server waits
// for in-flight requests (a scrape, a running profile) to finish
// before cutting them off.
const DefaultDrainTimeout = 2 * time.Second

// StartDebugServer serves the standard Go debug endpoints plus the
// registry snapshot on addr ("host:port"; ":0" picks a free port):
//
//	/debug/pprof/   net/http/pprof profiles
//	/debug/vars     expvar (cmdline, memstats)
//	/metrics        the registry's Snapshot as JSON (404 when reg is nil)
//
// It returns the bound address and a func that shuts the server down
// gracefully: stop first refuses new connections and waits up to
// DefaultDrainTimeout for in-flight requests to complete, then
// force-closes whatever remains — so a stuck profile download can
// delay shutdown by at most that budget. The server runs on its own
// goroutine; it observes, it never blocks the pipeline.
//
// stop is idempotent — later calls return the first call's result. It
// returns the shutdown error (if any) joined with the serve loop's
// exit error, so an accept-loop failure that would otherwise vanish on
// a background goroutine surfaces at the single point the caller
// already checks.
func StartDebugServer(addr string, reg *Registry) (bound string, stop func() error, err error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	if reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			// Render to a buffer first: once WriteHeader is implied by
			// the first write, a mid-snapshot encoding error could only
			// produce a torn 200 response. Buffering keeps the error
			// reportable as a real 500.
			var buf bytes.Buffer
			if err := reg.WriteJSON(&buf); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if _, err := buf.WriteTo(w); err != nil {
				// The scraper hung up mid-response; it is the only party
				// that could have been told, so count it and move on.
				reg.Add("obs.debug.write_errors", 1)
			}
		})
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	var (
		once    sync.Once
		stopErr error
	)
	stop = func() error {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), DefaultDrainTimeout)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				// Drain budget exhausted: cut the stragglers loose.
				stopErr = errors.Join(err, srv.Close())
			}
			// Serve returns ErrServerClosed on a clean Shutdown/Close;
			// anything else is a real accept-loop failure.
			if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
				stopErr = errors.Join(stopErr, err)
			}
		})
		return stopErr
	}
	return ln.Addr().String(), stop, nil
}
