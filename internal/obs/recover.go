package obs

import (
	"log/slog"
	"net/http"
	"runtime/debug"
)

// RecoverPanics converts a panicking handler into a 500 response, a
// structured log line, and a tick of m's panics counter, keeping the
// process (and its listener) alive.  Both servers wrap their whole mux
// in it.  A panic below this middleware cannot leak a lock: handlers
// release theirs with defer, and deferred calls run during the panic
// unwind.  http.ErrAbortHandler is re-raised: it is net/http's own way
// to abort a response, not a fault.
func RecoverPanics(logger *slog.Logger, m *Metrics, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				m.Panic()
				logger.Error("panic recovered", "path", r.URL.Path, "panic", rec,
					"stack", string(debug.Stack()))
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		h.ServeHTTP(w, r)
	})
}
