package cli

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only on a -debug-addr listener
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// readHeaderTimeout bounds how long a client may take to send its request
// line and headers. Without it a connection that opens and then stalls
// pins a goroutine and a file descriptor until the process exits.
const readHeaderTimeout = 10 * time.Second

// readTimeout bounds the whole request read, body included (/classify
// bodies are capped at 16 MiB), so a client that trickles its body cannot
// pin a handler either. net/http lifts the deadline once the body is read,
// so the handler and the per-request -timeout are unaffected; it is also
// the keep-alive idle timeout (http.Server.IdleTimeout defaults to it).
const readTimeout = 30 * time.Second

// NewHTTPServer returns the http.Server both daemons serve from, so the
// worker and the router cannot drift apart on connection hygiene. Its
// Shutdown closes connections that have not sent a byte yet: net/http
// counts such a connection (StateNew) as active until it is 5 s old, so one
// spare connection a client dialled and never used would otherwise hold
// the drain that long.
func NewHTTPServer(h http.Handler) *http.Server {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
	var mu sync.Mutex
	draining := false
	unused := map[net.Conn]struct{}{}
	srv.ConnState = func(c net.Conn, state http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case state != http.StateNew:
			delete(unused, c)
		case draining:
			c.Close()
		default:
			unused[c] = struct{}{}
		}
	}
	srv.RegisterOnShutdown(func() {
		mu.Lock()
		defer mu.Unlock()
		draining = true
		for c := range unused {
			c.Close()
		}
	})
	return srv
}

// ServeUntilSignal is the lifecycle both daemons share: bind addr (and, if
// debugAddr is non-empty, a second listener exposing net/http/pprof — the
// serving port never carries profiling), tell the caller the bound address
// through listening (where the worker reports its kernel-assigned port to a
// supervisor), serve h until SIGINT/SIGTERM, then stop accepting, let
// in-flight HTTP requests finish, and run the caller's drain — all within
// grace. It returns nil after a clean signal-driven drain. A nil log is
// silent.
func ServeUntilSignal(log *slog.Logger, addr, debugAddr string, h http.Handler, grace time.Duration,
	listening func(bound string) error, drain func(context.Context) error) error {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		log.Info("pprof listening", "addr", dln.Addr().String())
		// Lives until the process exits: profiling must outlast the drain.
		go func() {
			if err := http.Serve(dln, nil); err != nil {
				log.Warn("pprof server exited", "err", err)
			}
		}()
	}
	if err := listening(ln.Addr().String()); err != nil {
		ln.Close()
		return err
	}
	srv := NewHTTPServer(h)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Info("shutting down: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	return drain(shutdownCtx)
}
