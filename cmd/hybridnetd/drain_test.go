package main

import (
	"bytes"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestDrainIgnoresUnusedConnection: a connection that never sends a request
// (a client's spare, dialled and never used) does not hold the daemon's
// drain: SIGTERM ends the process within 2 s with status 0. Before the fix
// net/http waited until the connection was 5 s old.
func TestDrainIgnoresUnusedConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin := filepath.Join(t.TempDir(), "hybridnetd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/hybridnetd").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-demo", "-addr", addr)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		cmd.Process.Kill()
		<-exited
	}()
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no /healthz: %v\n%s", err, stderr.String())
		}
	}
	client.CloseIdleConnections()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(100 * time.Millisecond) // let the server accept it
	start := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v, want status 0\n%s", err, stderr.String())
		}
		if d := time.Since(start); d >= 2*time.Second {
			t.Fatalf("drain took %v with an unused connection open, want < 2s", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("still running 10s after SIGTERM\n%s", stderr.String())
	}
}
