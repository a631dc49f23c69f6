package cli

import (
	"net/http"
	"time"
)

// readHeaderTimeout bounds how long a client may take to send its request
// line and headers. Without it a connection that opens and then stalls
// pins a goroutine and a file descriptor until the process exits. It does
// not bound the body read or the handler, so slow classifications and the
// per-request -timeout are unaffected.
const readHeaderTimeout = 10 * time.Second

// NewHTTPServer returns the http.Server both daemons serve from, so the
// worker and the router cannot drift apart on connection hygiene.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}
