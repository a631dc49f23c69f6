package shard

import (
	"bufio"
	"context"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"repro/internal/cli"
)

// spawnReportTimeout bounds how long a freshly started worker may take to
// bind its listener and report the address on stdout.
const spawnReportTimeout = 15 * time.Second

// workerProc supervises one spawned hybridnetd process.
type workerProc struct {
	cmd    *exec.Cmd
	waited chan struct{} // closed once Wait has returned (process reaped)

	mu      sync.Mutex
	waitErr error
}

// Spawn starts n hybridnetd worker processes from bin, each on a
// kernel-assigned port (`-addr 127.0.0.1:0` plus extraArgs, e.g. "-demo"),
// learns every bound address from the stdout report line, and returns a
// Router over the fleet. On any startup failure the already-started workers
// are killed. Each worker is supervised: if it exits, the router respawns
// it with exponential backoff until Config.RestartMax consecutive attempts
// fail (see Router docs). Shutdown parks the supervisors, then SIGTERMs the
// workers and waits for their drain.
func Spawn(bin string, n int, extraArgs []string, cfg Config) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 worker, got %d", n)
	}
	cfg = cfg.withDefaults()
	shards := make([]*shardState, 0, n)
	kill := func() {
		for _, s := range shards {
			s.proc.cmd.Process.Kill()
		}
	}
	for i := 0; i < n; i++ {
		proc, addr, err := startWorker(bin, extraArgs, i, cfg.Log, nil)
		if err != nil {
			kill()
			return nil, fmt.Errorf("shard: worker %d: %w", i, err)
		}
		u, err := normalizeURL(addr)
		if err != nil {
			kill()
			proc.cmd.Process.Kill()
			return nil, fmt.Errorf("shard: worker %d reported bad address %q: %w", i, addr, err)
		}
		cfg.Log.Info("worker up", "shard", i, "url", u, "pid", proc.cmd.Process.Pid)
		shards = append(shards, &shardState{id: i, url: u, proc: proc})
	}
	r := newRouter(shards, cfg)
	r.bin, r.binArgs = bin, extraArgs
	r.superviseSpawned()
	return r, nil
}

// startWorker launches one process and waits for its address report. A
// close of cancel (nil = never) abandons the wait and kills the fresh
// process — the supervisor passes the router's stop channel so a shutdown
// never blocks behind a slow-starting respawn.
func startWorker(bin string, extraArgs []string, id int, log *slog.Logger, cancel <-chan struct{}) (*workerProc, string, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	p := &workerProc{cmd: cmd, waited: make(chan struct{})}

	addrCh := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		reported := false
		for sc.Scan() {
			if addr, ok := cli.ParseAddrReport(sc.Text()); ok && !reported {
				reported = true
				addrCh <- addr
			}
		}
	}()
	go func() {
		<-scanDone // Wait closes the stdout pipe; only call it after EOF
		err := cmd.Wait()
		// Log before releasing waiters: once waited closes, a test-scoped
		// logger's writer may already be gone.
		log.Info("worker exited", "shard", id, "pid", cmd.Process.Pid, "err", err)
		p.mu.Lock()
		p.waitErr = err
		p.mu.Unlock()
		close(p.waited)
	}()

	select {
	case addr := <-addrCh:
		return p, addr, nil
	case <-p.waited:
		cmd.Process.Kill()
		return nil, "", fmt.Errorf("exited before reporting an address: %v", p.waitError())
	case <-cancel:
		cmd.Process.Kill()
		return nil, "", fmt.Errorf("spawn canceled")
	case <-time.After(spawnReportTimeout):
		cmd.Process.Kill()
		return nil, "", fmt.Errorf("no address report within %v", spawnReportTimeout)
	}
}

func (p *workerProc) waitError() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.waitErr
}

// exited reports whether the process has already been reaped.
func (p *workerProc) exited() bool {
	select {
	case <-p.waited:
		return true
	default:
		return false
	}
}

// drain asks the worker to shut down cleanly (SIGTERM → the daemon stops
// admission and drains its scheduler) and waits for the exit, escalating to
// SIGKILL when ctx expires. A worker that already died (e.g. the failover
// drill SIGKILLed it) drains trivially.
func (p *workerProc) drain(ctx context.Context, log *slog.Logger) error {
	if p.exited() {
		return nil
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		// Exited between the check and the signal; the reaper will record it.
		<-p.waited
		return nil
	}
	select {
	case <-p.waited:
	case <-ctx.Done():
		log.Info("drain deadline passed, killing worker", "pid", p.cmd.Process.Pid)
		p.cmd.Process.Kill()
		<-p.waited
		return fmt.Errorf("drain timed out, worker killed: %w", ctx.Err())
	}
	if err := p.waitError(); err != nil {
		return fmt.Errorf("worker exit: %w", err)
	}
	return nil
}
