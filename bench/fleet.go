package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

const (
	fleetShards = 2
	// framePeriod is one camera stream at 45 frames a second.
	framePeriod = time.Second / 45
	fleetWarm   = 50
)

// buildDaemons compiles hybridnetd and hybridnet-router from the checkout
// into the build directory. The Go build cache makes a repeat a no-op, so
// every run may ask.
func buildDaemons(ctx context.Context, root string) (bin string, err error) {
	bin = filepath.Join(buildDir(root), "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/hybridnetd", "./cmd/hybridnet-router")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build daemons: %w\n%s", err, out)
	}
	return bin, nil
}

// fleet is a running hybridnet-router with the workers it spawned, in a
// process group of their own so that none can outlive the benchmark.
type fleet struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the router has been reaped
	url    string
	dir    string // per-run scratch: the daemons' stderr
	stderr string
}

// freePort asks the kernel for an unused loopback port. The router cannot
// report a port it picked itself, so the benchmark picks one; the window
// between closing the probe socket and the router's bind is the usual,
// accepted race.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startFleet(ctx context.Context, root, bin string) (*fleet, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir(root), "run-")
	if err != nil {
		return nil, err
	}
	f := &fleet{
		url: fmt.Sprintf("http://127.0.0.1:%d", port), exited: make(chan struct{}),
		dir: dir, stderr: filepath.Join(dir, "daemons.stderr"),
	}
	logFile, err := os.Create(f.stderr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer logFile.Close() // the child keeps its own descriptor
	f.cmd = exec.CommandContext(ctx, filepath.Join(bin, "hybridnet-router"),
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-shards", fmt.Sprint(fleetShards),
		"-worker-bin", filepath.Join(bin, "hybridnetd"),
		"-worker-args", fmt.Sprintf("-demo -size %d -log-level warn", demoSize))
	f.cmd.Stderr = logFile // workers inherit it from the router
	f.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	// When ctx ends — deadline, SIGINT, SIGTERM — kill the whole group at
	// once, workers included, even if the benchmark's own goroutines hang.
	f.cmd.Cancel = func() error { return syscall.Kill(-f.cmd.Process.Pid, syscall.SIGKILL) }
	if err := f.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start router: %w", err)
	}
	go func() {
		// The exit status carries nothing: the router is stopped by signal.
		_ = f.cmd.Wait()
		close(f.exited)
	}()
	if err := f.waitReady(ctx); err != nil {
		err = fmt.Errorf("fleet not ready: %w\n%s", err, f.stderrTail())
		f.stop()
		return nil, err
	}
	return f, nil
}

// waitReady polls the router's /healthz, which answers 200 once the router
// listens; it listens only after every worker has reported healthy.
func (f *fleet) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-f.exited:
			return errors.New("router exited before listening")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (f *fleet) stderrTail() string {
	b, err := os.ReadFile(f.stderr)
	if err != nil {
		return ""
	}
	if len(b) > 4096 {
		b = b[len(b)-4096:]
	}
	return "daemons' stderr:\n" + string(b)
}

// pids lists the router and every worker under it.
func (f *fleet) pids() ([]int, error) {
	kids, err := descendants(f.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if len(kids) != fleetShards {
		return nil, fmt.Errorf("router has %d child processes, want %d workers", len(kids), fleetShards)
	}
	return append([]int{f.cmd.Process.Pid}, kids...), nil
}

// stop drains the fleet (SIGTERM: the router stops its workers, each drains
// its scheduler), kills the group if that takes too long, reaps the router
// and checks that no process of the group is left running.
func (f *fleet) stop() error {
	pgid := f.cmd.Process.Pid
	defer os.RemoveAll(f.dir)
	f.cmd.Process.Signal(syscall.SIGTERM)
	var errs []error
	select {
	case <-f.exited:
	case <-time.After(20 * time.Second):
		errs = append(errs, errors.New("router did not drain within 20 s; killed"))
		syscall.Kill(-pgid, syscall.SIGKILL)
		<-f.exited
	}
	// A worker the router left behind would hold a core through the next run.
	left, err := groupMembers(pgid)
	if err != nil {
		errs = append(errs, err)
	}
	if len(left) > 0 {
		syscall.Kill(-pgid, syscall.SIGKILL)
		errs = append(errs, fmt.Errorf("processes %v outlived the router; killed", left))
	}
	if len(errs) > 0 {
		errs = append(errs, errors.New(f.stderrTail()))
	}
	return errors.Join(errs...)
}

// answer is the part of a /classify reply the benchmark checks.
type answer struct {
	Class          int     `json:"class"`
	Confidence     float32 `json:"confidence"`
	Decision       string  `json:"decision"`
	QualifierShape string  `json:"qualifier_shape"`
	ServiceClass   string  `json:"service_class"`
	Degraded       bool    `json:"degraded"`
	ReliableOps    uint64  `json:"reliable_ops"`
}

// reply is one request's outcome as the client saw it.
type reply struct {
	answer  answer
	header  http.Header
	sent    time.Time
	replied time.Time
}

// post sends one image under a service class and decodes the reply; any
// transport error, timeout or status other than 200 is an error.
func post(ctx context.Context, client *http.Client, url string, body []byte, class serve.Class) (reply, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/classify", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.ClassHeader, class.String())
	r := reply{sent: time.Now()}
	resp, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	r.replied = time.Now()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &r.answer); err != nil {
		return reply{}, fmt.Errorf("reply body: %w", err)
	}
	r.header = resp.Header
	return r, nil
}

// mismatchAnswer checks a reply against the golden answer and the wire
// contract: the class it was served under, and never degraded at this load.
func mismatchAnswer(g golden, a answer, class serve.Class) string {
	if a.ServiceClass != class.String() || a.Degraded {
		return fmt.Sprintf("served as %s degraded=%v, want %s degraded=false", a.ServiceClass, a.Degraded, class)
	}
	return g.mismatch(a.Class, a.Confidence, a.Decision, a.QualifierShape, a.ReliableOps)
}

// newClient returns a client holding one connection: one camera stream.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// pacer is one stream's schedule: frame i is due at start+offset+i·period.
// The clock is injected so a test can drive it.
type pacer struct {
	start          time.Time
	offset, period time.Duration
	now            func() time.Time
	sleep          func(time.Duration)
}

// wait blocks until frame i is due. idle reports that the stream was free
// before the due time, in which case late is how far past it the generator
// woke. A stream still waiting for its previous reply at the due time is
// not idle: the frame goes out at once and the wait, being the system's
// doing, is charged to the frame's latency, which runs from due.
func (p *pacer) wait(i int) (due time.Time, late time.Duration, idle bool) {
	due = p.start.Add(p.offset + time.Duration(i)*p.period)
	now := p.now()
	if !now.Before(due) {
		return due, 0, false
	}
	p.sleep(due.Sub(now))
	return due, p.now().Sub(due), true
}

// fleetStreams is the deployed system under camera-like load: an open loop
// of one stream per core, 45 fast-class frames a second each, through the
// router to two workers over loopback HTTP. The HTTP edge, the scheduler's
// batch-fill wait and the proxy do most of the work; reliable does none.
type fleetStreams struct {
	seed    int64
	root    string
	set     *imageSet
	fleet   *fleet
	or      *oracle
	clients []*http.Client

	traced        []fleetSample
	late          []time.Duration
	before, after shard.StatsReport
}

type fleetSample struct {
	client         time.Duration // send to reply
	worker, router []obs.Span
}

func newFleetStreams(seed int64, root string) workload { return &fleetStreams{seed: seed, root: root} }

func (f *fleetStreams) setup(ctx context.Context) error {
	bin, err := buildDaemons(ctx, f.root)
	if err != nil {
		return err
	}
	if f.set, err = newImageSet(f.seed); err != nil {
		return err
	}
	if f.fleet, err = startFleet(ctx, f.root, bin); err != nil {
		return err
	}
	f.clients = make([]*http.Client, runtime.NumCPU())
	for i := range f.clients {
		f.clients[i] = newClient()
	}
	for i := 0; i < fleetWarm; i++ {
		if _, err := post(ctx, f.clients[i%len(f.clients)], f.fleet.url, f.set.bodies[i%imageCount], serve.ClassFast); err != nil {
			return fmt.Errorf("warm-up request %d: %w\n%s", i, err, f.fleet.stderrTail())
		}
	}
	return nil
}

// verify sends every image once under every service class through the
// router and checks the wire contract against the in-process oracle.
func (f *fleetStreams) verify(ctx context.Context) (attempted, failed int, err error) {
	h, _, err := demoModel()
	if err != nil {
		return 0, 0, err
	}
	if f.or, err = newOracle(h, f.set.imgs); err != nil {
		return 0, 0, err
	}
	type job struct {
		img   int
		class serve.Class
	}
	jobs := make(chan job)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, client := range f.clients {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			for j := range jobs {
				r, err := post(ctx, client, f.fleet.url, f.set.bodies[j.img], j.class)
				why := ""
				if err != nil {
					why = err.Error()
				} else {
					why = mismatchAnswer(f.or.pick(j.img, j.class, false), r.answer, j.class)
				}
				mu.Lock()
				attempted++
				if why != "" {
					failed++
					fmt.Fprintf(os.Stderr, "fleet-streams: contract check, image %d as %s: %s\n", j.img, j.class, why)
				}
				mu.Unlock()
			}
		}(client)
	}
	for img := 0; img < imageCount; img++ {
		for _, class := range serve.Classes {
			jobs <- job{img, class}
		}
	}
	close(jobs)
	wg.Wait()
	return attempted, failed, ctx.Err()
}

func (f *fleetStreams) pids() ([]int, error) {
	kids, err := f.fleet.pids()
	return append([]int{os.Getpid()}, kids...), err
}

func (f *fleetStreams) close() error {
	for _, c := range f.clients {
		c.CloseIdleConnections()
	}
	if f.fleet == nil {
		return nil
	}
	return f.fleet.stop()
}

func (f *fleetStreams) stats(ctx context.Context) (shard.StatsReport, error) {
	var rep shard.StatsReport
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.fleet.url+"/stats", nil)
	if err != nil {
		return rep, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("router /stats: status %d", resp.StatusCode)
	}
	return rep, json.NewDecoder(resp.Body).Decode(&rep)
}

func (f *fleetStreams) run(ctx context.Context, d time.Duration, rec *recorder) (*window, error) {
	var err error
	if rec != nil {
		if f.before, err = f.stats(ctx); err != nil {
			return nil, err
		}
	}
	pids, err := f.pids()
	if err != nil {
		return nil, err
	}
	var (
		mu       sync.Mutex
		win      = newWindow(d, pids)
		samples  []fleetSample
		lates    []time.Duration
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now().Add(10 * time.Millisecond)
	for s, client := range f.clients {
		wg.Add(1)
		go func(s int, client *http.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(f.seed*100 + int64(s)))
			// Phases are staggered evenly, then jittered by the seed.
			offset := time.Duration(s)*framePeriod/time.Duration(len(f.clients)) +
				time.Duration(rng.Int63n(int64(framePeriod/time.Duration(len(f.clients)))))
			p := pacer{start: start, offset: offset, period: framePeriod, now: time.Now, sleep: time.Sleep}
			for i := 0; ctx.Err() == nil; i++ {
				if offset+time.Duration(i)*framePeriod >= d {
					return
				}
				due, late, idle := p.wait(i)
				idx := rng.Intn(imageCount)
				r, err := post(ctx, client, f.fleet.url, f.set.bodies[idx], serve.ClassFast)
				why := ""
				if err != nil {
					why = err.Error()
					r.replied = time.Now()
				} else {
					why = mismatchAnswer(f.or.cnn[idx], r.answer, serve.ClassFast)
				}
				traced := rec != nil && i%2 == 1
				var smp fleetSample
				if traced && err == nil {
					smp.client = r.replied.Sub(r.sent)
					if smp.worker, err = obs.ParseSpans(r.header.Get(obs.SpansHeader)); err != nil {
						why = err.Error()
					}
					if smp.router, err = obs.ParseSpans(r.header.Get(obs.RouterSpansHeader)); err != nil {
						why = err.Error()
					}
				}
				mu.Lock()
				if why != "" && firstErr == nil {
					firstErr = fmt.Errorf("stream %d frame %d (image %d): %s", s, i, idx, why)
				}
				win.add(op{done: r.replied.Sub(start), lat: r.replied.Sub(due), images: 1, ok: why == "", traced: traced})
				if idle {
					lates = append(lates, late)
				}
				if traced && why == "" {
					samples = append(samples, smp)
					req := len(samples) - 1
					root := rec.add("client.request", due, r.replied, -1, req)
					top := rec.addHeader("shard.", smp.router, r.sent, root, req)
					if a, ok := top["attempt0"]; ok {
						rec.addHeader("hybridnetd.", smp.worker, a.start, a.idx, req)
					}
				}
				mu.Unlock()
			}
		}(s, client)
	}
	wg.Wait()
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "fleet-streams: %d of %d requests failed, first: %v\n%s",
			win.failed(), win.attempted(), firstErr, f.fleet.stderrTail())
	}
	f.late = lates
	if rec != nil {
		f.traced = samples
		if f.after, err = f.stats(ctx); err != nil {
			return nil, err
		}
	}
	return win, ctx.Err()
}

// loopbackFloor is the median round trip, in milliseconds, of a request that
// costs the transport what a frame costs and the fleet nothing: the same
// body posted under a service class the router does not know, which it
// refuses with 400 before reading the body, placing or proxying anything.
// The probes keep a stream's pace: after 22 ms of idleness every hop first
// has to wake a parked goroutine, which a back-to-back probe would not pay.
func (f *fleetStreams) loopbackFloor(ctx context.Context, full bool) (float64, error) {
	n := 100
	if !full {
		n = 10
	}
	rtts := make([]time.Duration, n)
	for i := range rtts {
		time.Sleep(framePeriod)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.fleet.url+"/classify", bytes.NewReader(f.set.bodies[i%imageCount]))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(obs.ClassHeader, "no-such-class")
		t0 := time.Now()
		resp, err := f.clients[0].Do(req)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusBadRequest {
			return 0, fmt.Errorf("loopback probe: status %d, want the router's 400 for an unknown class", resp.StatusCode)
		}
		rtts[i] = time.Since(t0)
	}
	return p50MS(rtts), nil
}

func spanDur(spans []obs.Span, name string) time.Duration {
	for _, s := range spans {
		if s.Name == name {
			return s.Dur
		}
	}
	return 0
}

func (f *fleetStreams) layers(ctx context.Context, m metricSet, rec *recorder, full bool) error {
	if len(f.traced) == 0 {
		return errors.New("no traced request succeeded")
	}
	col := map[string][]time.Duration{}
	for _, x := range f.traced {
		for _, name := range []string{"admission", "queue", "batch", "backend", "deliver"} {
			col[name] = append(col[name], spanDur(x.worker, name))
		}
		worker := obs.SumTopLevel(x.worker)
		router := obs.SumTopLevel(x.router)
		col["total"] = append(col["total"], worker)
		col["read"] = append(col["read"], spanDur(x.router, "read"))
		col["proxy"] = append(col["proxy"], spanDur(x.router, "attempt0")-worker)
		col["client"] = append(col["client"], x.client-router)
		col["latency"] = append(col["latency"], x.client)
	}
	for _, name := range []string{"admission", "queue", "batch", "backend", "deliver", "total"} {
		m.set("hybridnetd."+name+"_ms_p50", p50MS(col[name]))
	}
	m.set("shard.read_ms_p50", p50MS(col["read"]))
	m.set("shard.proxy_overhead_ms_p50", p50MS(col["proxy"]))
	m.set("shard.client_overhead_ms_p50", p50MS(col["client"]))
	// What the client timed, less what the router's spans account for, is
	// loopback and HTTP handling no span can see. A refused POST of the same
	// size pays that and nothing else, so the two must agree, or a span
	// header lies about where a request's time went.
	floor, err := f.loopbackFloor(ctx, full)
	if err != nil {
		return err
	}
	m.set("bench.stage_crosscheck_err", math.Abs(p50MS(col["client"])-floor)/p50MS(col["latency"]))
	m.set("bench.gen_late_ms_p99", pMS(f.late, 0.99))
	m.set("gtsrb.render_ms", ms(f.set.render)/imageCount)
	m.set("gtsrb.png_encode_ms", ms(f.set.encode)/imageCount)

	a, b := f.before, f.after
	m.set("shard.failovers", float64(b.Failovers-a.Failovers))
	m.set("shard.errors", float64(b.Errors-a.Errors))
	var total, largest uint64
	for i := range b.Shards {
		if b.Shards[i].Stats == nil || i >= len(a.Shards) || a.Shards[i].Stats == nil {
			return fmt.Errorf("router /stats: shard %d reported no stats: %s", i, b.Shards[i].Error)
		}
		n := b.Shards[i].Stats.Completed - a.Shards[i].Stats.Completed
		total += n
		largest = max(largest, n)
	}
	if total > 0 {
		m.set("shard.max_shard_share", float64(largest)/float64(total))
	}
	stage := shares([3]float64{
		float64(b.Aggregate.StageReliable - a.Aggregate.StageReliable),
		float64(b.Aggregate.StageQualifier - a.Aggregate.StageQualifier),
		float64(b.Aggregate.StageCNN - a.Aggregate.StageCNN),
	})
	m.set("core.stage_reliable_share", stage[0])
	m.set("core.stage_qualifier_share", stage[1])
	m.set("core.stage_cnn_share", stage[2])
	batches := b.Aggregate.Batches - a.Aggregate.Batches
	m.set("serve.batches", float64(batches))
	if batches > 0 {
		m.set("serve.mean_batch", float64(b.Aggregate.Dispatched()-a.Aggregate.Dispatched())/float64(batches))
	}
	m.set("serve.rejected", float64(b.Aggregate.Rejected-a.Aggregate.Rejected))
	m.set("serve.degraded", float64(b.Aggregate.Degraded-a.Aggregate.Degraded))
	return nil
}
