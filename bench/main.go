// Command bench is the repository's benchmark: four workloads that stress
// different layers of the hybrid classifier, each checked against an oracle,
// with end-to-end metrics from an untraced run and per-layer metrics from a
// separate traced one. README.md in this directory is the metric catalogue
// and the reasoning behind each workload.
//
//	bash bench/run.sh --workload frame-loop --seed 1 --seconds 27 --trace 0
//	bash bench/run.sh --workload all --seconds 27 --trace 0 --out a.json
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/tensor"
)

// workload is one set of inputs the benchmark runs. A value is used for one
// set-up only; the untraced run sets up several times to report a median.
type workload interface {
	// setup builds everything the timed window needs — inputs from the
	// seed, the model, any daemons — and warms it up.
	setup(ctx context.Context) error
	// verify builds the oracle and makes the checks that belong outside the
	// window, returning how many operations it attempted and how many failed.
	verify(ctx context.Context) (attempted, failed int, err error)
	// run drives the workload for d. With a recorder it records spans
	// around every second operation and keeps what layers needs; tracing
	// the operations alternately puts both kinds under the same conditions,
	// so the difference of their medians is the tracing overhead and not
	// the drift between two windows.
	run(ctx context.Context, d time.Duration, rec *recorder) (*window, error)
	// layers fills in the per-layer metrics of the layers this workload
	// uses, from the traced window just run and from probes of its own.
	layers(ctx context.Context, m metricSet, rec *recorder, full bool) error
	// pids lists the processes whose CPU time and memory the workload is
	// charged for.
	pids() ([]int, error)
	close() error
}

// spec describes a workload to the runner.
type spec struct {
	name string
	why  string        // one line, repeated in BENCHMARK.json
	tail float64       // the percentile behind latency_tail_ms
	slo  time.Duration // the latency limit behind slo_met_share
	new  func(seed int64, root string) workload
}

var specs = []spec{
	{
		"frame-loop",
		"one caller, one 32x32 frame at a time through Classify: reliable does ~90% of the work, serve/shard/HTTP none; the reliable-stage change must win here only",
		0.90, 33 * time.Millisecond, newFrameLoop,
	},
	{
		"alexnet-batch",
		"batches of 8 CNN-only 3x227x227 images through AlexNet: tensor and nn do all the work at the paper's real shapes, reliable/shape/serve/shard none; kernel changes show here",
		0.75, time.Second, newAlexNetBatch,
	},
	{
		"sched-saturate",
		"16 closed-loop submitters of mixed classes keep a backlog on the in-process scheduler: same reliable/nn layers but batched and pooled, where queueing, WRR and batch fill matter",
		0.90, 250 * time.Millisecond, newSchedSaturate,
	},
	{
		"fleet-streams",
		"open loop of 45 fps fast-class streams over HTTP through the router to 2 workers: edge, batch-fill wait and proxy dominate, backend is small, reliable does nothing",
		0.90, 25 * time.Millisecond, newFleetStreams,
	},
}

// setupReps is how often the untraced run sets up; setup_s is the median.
const setupReps = 3

// runDoc is the full record of one run, as -out stores it. The last line of
// standard output carries the part of it the driver reads.
type runDoc struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   int       `json:"seconds"`
	Trace     int       `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Noisy     bool      `json:"noisy"`
	Notes     []string  `json:"notes,omitempty"`
	Env       envBlock  `json:"env"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	if err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "frame-loop | alexnet-batch | sched-saturate | fleet-streams | all")
	seed := fs.Int64("seed", 1, "input seed: image set, class sequence, stream phases (model weights stay fixed)")
	seconds := fs.Int("seconds", 27, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "append the full run record (environment, segment extremes, notes) to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two files, got %d", fs.NArg())
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds %d out of [1,60]", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d, want 0 or 1", *trace)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if *name == "all" {
		return runAll(root, *seed, *seconds, *trace, *out)
	}
	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			sp = &specs[i]
		}
	}
	if sp == nil {
		return fmt.Errorf("unknown -workload %q", *name)
	}

	// One budget covers the whole run: SIGINT, SIGTERM or a hung fleet
	// cancel ctx, every loop and request watches it, and the deferred
	// closes then reap the daemons. Should the unwinding itself hang, the
	// backstop exits anyway; by then ctx has killed the daemons' process
	// group (see startFleet).
	budget := time.Duration(*seconds)*time.Second + 100*time.Second
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	backstop := time.AfterFunc(budget+15*time.Second, func() {
		fmt.Fprintln(os.Stderr, "bench: run did not unwind after its deadline; exiting")
		os.Exit(3)
	})
	defer backstop.Stop()

	doc := runDoc{Workload: sp.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Env: environment()}
	if *trace == 0 {
		err = runUntraced(ctx, sp, root, &doc)
	} else {
		err = runTraced(ctx, sp, root, &doc)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", sp.name, err)
	}
	printTable(os.Stderr, doc)
	if *out != "" {
		if err := appendDoc(*out, doc); err != nil {
			return err
		}
	}
	if err := printResult(os.Stdout, doc); err != nil {
		return err
	}
	if !doc.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or a cross-check disagreed: %s",
			sp.name, doc.Failed, doc.Attempted, strings.Join(doc.Notes, "; "))
	}
	return nil
}

// repoRoot walks up from the working directory to the checkout's root, the
// directory holding BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this directory or above it: run from the checkout")
		}
		dir = parent
	}
}

// buildDir is where everything the benchmark leaves behind goes; the root
// .gitignore names it.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

func runUntraced(ctx context.Context, sp *spec, root string, doc *runDoc) error {
	var setups []float64
	var w workload
	for i := 0; i < setupReps; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return fmt.Errorf("close after set-up %d: %w", i, err)
			}
			// Drop the previous set-up before the next allocates, so the
			// peak resident set is one model's and not two.
			w = nil
			debug.FreeOSMemory()
		}
		w = sp.new(doc.Seed, root)
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	vAttempted, vFailed, err := w.verify(ctx)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}

	pids, err := w.pids()
	if err != nil {
		return err
	}
	calib0 := calibrate()
	// Start the window from a collected heap and a fresh high-water mark, so
	// that peak_rss_mb is the window's and repeats; set-up's garbage would
	// otherwise decide it.
	runtime.GC()
	if err := resetPeakRSS(pids); err != nil {
		doc.Notes = append(doc.Notes, fmt.Sprintf("peak_rss_mb covers set-up too: %v", err))
	}
	win, err := w.run(ctx, time.Duration(doc.Seconds)*time.Second, nil)
	if err != nil {
		return fmt.Errorf("timed window: %w", err)
	}
	if win.err != nil {
		return fmt.Errorf("CPU time during the window: %w", win.err)
	}
	rss, err := peakRSSMB(pids)
	if err != nil {
		return err
	}
	calib1 := calibrate()
	segs := win.segments()
	pool := quiet(segs)
	if pool.images() == 0 {
		return fmt.Errorf("no operation completed correctly in the quiet part of %d s (%d attempted in %d segments)",
			doc.Seconds, win.attempted(), len(segs))
	}

	m := metricSet{}
	m.setStat("setup_s", summarize(setups))
	m.setStat("throughput_ips", over(pool, segs, segment.throughput))
	m.setStat("latency_p50_ms", over(pool, segs, func(s segment) float64 { return s.percentile(0.5) }))
	m.setStat("latency_tail_ms", over(pool, segs, func(s segment) float64 { return s.percentile(sp.tail) }))
	m.setStat("slo_met_share", over(pool, segs, func(s segment) float64 { return s.sloMet(sp.slo) }))
	m.setStat("cpu_ms_per_img", over(pool, segs, segment.cpuPerImage))
	m.set("peak_rss_mb", rss)

	doc.Metrics = m
	doc.Attempted = win.attempted() + vAttempted
	doc.Failed = win.failed() + vFailed
	doc.Correct = doc.Failed == 0
	doc.Noisy = noisy(calib0, calib1)
	whole := segment{ops: win.ops}
	tailBeyond := beyond(len(pool.latencies()), sp.tail)
	doc.Notes = append(doc.Notes,
		fmt.Sprintf("timing metrics are taken over the %d of %d segments with the lowest median latency: %d of %d operations, %.1f s",
			(len(segs)+quietShare-1)/quietShare, len(segs), len(pool.ops), win.attempted(), pool.span.Seconds()),
		fmt.Sprintf("over the whole window: latency p50 %.4f ms, p%g %.4f ms", whole.percentile(0.5), sp.tail*100, whole.percentile(sp.tail)),
		fmt.Sprintf("latency_tail_ms is p%g, %d samples beyond it", sp.tail*100, tailBeyond),
		fmt.Sprintf("slo_met_share limit %v", sp.slo),
		fmt.Sprintf("calibration spin %.0f ns before, %.0f ns after", calib0, calib1))
	if tailBeyond < 10 {
		doc.Notes = append(doc.Notes, "fewer than ten samples beyond the tail percentile: the window is too short for it")
	}
	return nil
}

// tracedWindowShare is the part of a traced run's time its window takes;
// the layer probes take the rest.
const tracedWindowShare = 0.6

func runTraced(ctx context.Context, sp *spec, root string, doc *runDoc) error {
	w := sp.new(doc.Seed, root)
	defer w.close()
	if err := w.setup(ctx); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	vAttempted, vFailed, err := w.verify(ctx)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	d := time.Duration(float64(doc.Seconds) * tracedWindowShare * float64(time.Second))
	calib0 := calibrate()
	rec := newRecorder()
	win, err := w.run(ctx, d, rec)
	if err != nil {
		return fmt.Errorf("traced window: %w", err)
	}
	m := zeros()
	// Probes run their full repeat counts only when the run is long enough
	// to be a measurement; a smoke run does each once.
	full := doc.Seconds >= 10
	if err := w.layers(ctx, m, rec, full); err != nil {
		return fmt.Errorf("per-layer metrics: %w", err)
	}
	calib1 := calibrate()

	if plain := win.p50(false); plain > 0 {
		m.set("bench.trace_overhead_share", (win.p50(true)-plain)/plain)
	}
	m.set("bench.calib_ns_start", calib0)
	m.set("bench.calib_ns_end", calib1)

	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		return err
	}
	if err := rec.write(filepath.Join(buildDir(root), "trace-"+sp.name+".json")); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	doc.Metrics = m
	doc.Attempted = win.attempted() + vAttempted
	doc.Failed = win.failed() + vFailed
	doc.Noisy = noisy(calib0, calib1)
	doc.Correct = doc.Failed == 0
	// The outside timing and the program's own must agree, or one of them
	// lies and no later attribution can be trusted. A smoke run times a
	// handful of operations, too few for their medians to mean anything.
	if e := m["bench.stage_crosscheck_err"].Value; e > crosscheckLimit {
		doc.Correct = doc.Correct && !full
		doc.Notes = append(doc.Notes, fmt.Sprintf("stage cross-check error %.3f exceeds %.2f", e, crosscheckLimit))
	}
	if n := m["core.decision_mismatches"].Value; n > 0 {
		doc.Correct = false
		doc.Notes = append(doc.Notes, fmt.Sprintf("%.0f decisions differ between the decomposed pipeline and Classify", n))
	}
	self := rec.selfByName()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		doc.Notes = append(doc.Notes, fmt.Sprintf("self time %s: %.1f ms", n, ms(self[n])))
	}
	return nil
}

// crosscheckLimit is how far timing taken from outside may sit from the
// program's own before the traced run fails.
const crosscheckLimit = 0.10

// runAll runs every workload as a child process, the way the driver does,
// so that one workload's heap and high-water mark never leak into the next.
func runAll(root string, seed int64, seconds, trace int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, sp := range specs {
		args := []string{"-workload", sp.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		if err := runChild(exe, args); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", sp.name, err))
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

// runChild runs the benchmark's own binary for one workload of -workload all.
func runChild(exe string, args []string) error {
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd.Run()
}

func printResult(w io.Writer, doc runDoc) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{doc.Correct, doc.Attempted, doc.Failed, map[string]value{}}
	for name, m := range doc.Metrics {
		res.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func printTable(w io.Writer, doc runDoc) {
	fmt.Fprintf(w, "%s  seed %d  %d s  trace %d  correct %v  attempted %d  failed %d  noisy %v\n",
		doc.Workload, doc.Seed, doc.Seconds, doc.Trace, doc.Correct, doc.Attempted, doc.Failed, doc.Noisy)
	names := make([]string, 0, len(doc.Metrics))
	for n := range doc.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := doc.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f %-8s [%.4f .. %.4f]\n", n, m.Value, m.Unit, m.Min, m.Max)
	}
	for _, n := range doc.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// docFile is what -out writes and -compare reads: a set of runs.
type docFile struct {
	Runs []runDoc `json:"runs"`
}

func readDocs(path string) (docFile, error) {
	var f docFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func appendDoc(path string, doc runDoc) error {
	f, err := readDocs(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, doc)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// envBlock records where a run was made, so that two result files can be
// told apart before their numbers are compared.
type envBlock struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	CPUFeatures string `json:"cpu_features"`
	GemmKernel  string `json:"gemm_kernel"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	LoadAvg     string `json:"loadavg"`
}

func environment() envBlock {
	env := envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", CPUFeatures: tensor.CPUFeatures(), GemmKernel: tensor.GemmKernel(),
		GoVersion: runtime.Version(), Commit: "unknown", LoadAvg: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		env.LoadAvg = strings.TrimSpace(string(b))
	}
	env.Commit = buildCommit()
	return env
}

// buildCommit is the commit the Go tool stamped into the binary; a checkout
// that is not a repository reports "unknown".
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	commit, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			commit = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return commit + dirty
}

var calibSink uint64

// calibrate times a fixed scalar spin. Taken before and after a workload,
// it tells a run that shared its cores with something else from a quiet one.
// The spin keeps eight independent chains in flight: what disturbs this host
// is mostly another guest on the core's second hardware thread, which a
// single dependent chain — one instruction a cycle at best — does not feel,
// and a loop that fills the core's issue slots does.
func calibrate() float64 {
	spins := make([]float64, 3)
	for i := range spins {
		t0 := time.Now()
		a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
		e, f, g, h := uint64(5), uint64(6), uint64(7), uint64(8)
		for j := 0; j < 10_000_000; j++ {
			a = a*6364136223846793005 + 1
			b = b*6364136223846793005 + 3
			c = c*6364136223846793005 + 5
			d = d*6364136223846793005 + 7
			e ^= e << 13
			f ^= f >> 7
			g += a ^ b
			h += c ^ d
		}
		calibSink = a + b + c + d + e + f + g + h
		spins[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(spins)
}

// noisy reports calibration spins more than 15 % apart.
func noisy(a, b float64) bool {
	lo, hi := min(a, b), max(a, b)
	return lo <= 0 || (hi-lo)/lo > 0.15
}
