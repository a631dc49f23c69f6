package cli

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"syscall"
	"testing"
	"time"
)

// TestNewHTTPServerClosesSlowClients: a connection that never finishes its
// request line, or sends its headers and then stalls mid-body, is closed by
// the server instead of being held open forever. The daemons' constants are
// asserted, then shortened so the test does not wait the production tens of
// seconds.
func TestNewHTTPServerClosesSlowClients(t *testing.T) {
	for _, tc := range []struct{ name, sent string }{
		{"slow header", "GET /healthz HT"},
		{"slow body", "POST /classify HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"si"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
			}))
			if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
				t.Fatalf("ReadHeaderTimeout = %v, want the positive constant %v", srv.ReadHeaderTimeout, readHeaderTimeout)
			}
			if srv.ReadTimeout != readTimeout || readTimeout < readHeaderTimeout {
				t.Fatalf("ReadTimeout = %v, want the constant %v ≥ ReadHeaderTimeout", srv.ReadTimeout, readTimeout)
			}
			srv.ReadHeaderTimeout = 100 * time.Millisecond
			srv.ReadTimeout = 200 * time.Millisecond

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()
			defer func() {
				if err := srv.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
				if err := <-served; !errors.Is(err, http.ErrServerClosed) {
					t.Errorf("serve: %v", err)
				}
			}()

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte(tc.sent)); err != nil {
				t.Fatal(err)
			}
			// The client now stalls. The server must hang up: the read returns
			// EOF (or a reset) well before the client's own patience runs out.
			if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			_, err = io.Copy(io.Discard, conn)
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				t.Fatal("server kept a stalled connection open")
			}
		})
	}
}

// TestServeUntilSignal drives the daemons' shared lifecycle in-process: the
// bound address reaches the caller, the handler serves, and SIGTERM stops
// the listener and runs the caller's drain before a nil return.
func TestServeUntilSignal(t *testing.T) {
	bound := make(chan string, 1)
	drained := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- ServeUntilSignal(nil, "127.0.0.1:0", "", http.NotFoundHandler(), 10*time.Second,
			func(addr string) error { bound <- addr; return nil },
			func(ctx context.Context) error { close(drained); return ctx.Err() })
	}()
	var addr string
	select {
	case addr = <-bound:
	case err := <-done:
		t.Fatalf("returned before listening: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/nothing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want the handler's 404", resp.StatusCode)
	}
	// The helper registered its handler before it bound, so the signal
	// cannot reach the default (process-killing) disposition.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("signal-driven shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no return 10s after SIGTERM")
	}
	select {
	case <-drained:
	default:
		t.Fatal("returned without running the caller's drain")
	}
	if _, err := http.Get("http://" + addr + "/nothing"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}

	// A refusing listening hook (the worker failing to report its port)
	// aborts before serving and releases the port.
	refuse := errors.New("cannot report")
	err = ServeUntilSignal(nil, "127.0.0.1:0", "", http.NotFoundHandler(), time.Second,
		func(string) error { return refuse },
		func(context.Context) error { t.Error("drain ran without a serve"); return nil })
	if !errors.Is(err, refuse) {
		t.Fatalf("listening-hook failure returned %v, want it passed through", err)
	}
}
