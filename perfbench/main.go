// Command perfbench is the repository benchmark. It builds the storage
// service in process, drives it open-loop with one named workload, checks
// every output, and prints every metric by name and unit. The last line
// of standard output is a JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper_mix --seed 1 --seconds 27 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the run drives a half-length window twice on
// fresh deployments, untraced then traced, and reports per-layer
// metrics from the traced pass. --workload repro runs the analysis pipeline instead
// of the service. See perfbench/README.md for the workloads and what
// each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "paper_mix, read_zipf, cluster_mix or repro")
		seed      = flag.Uint64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 27, "measured window length in seconds")
		traced    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		calibrate = flag.Bool("calibrate", false, "run the window closed-loop and report capacity in operations per second")
	)
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *calibrate); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// settle flushes the filesystems. On a filesystem mounted with online
// discard, deleting a run's gigabyte of segment files queues discards
// that stall the next run's fsyncs for seconds; syncing before a run
// and after deleting its data keeps each run's disk work inside it.
func settle() { syscall.Sync() }

// result is the last line of output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// dataDir holds each run's service data, under the build directory of
// the checkout the benchmark runs from; it is removed after the run.
var dataDir = filepath.Join(".bench_build", "runs")

func run(name string, seed uint64, window time.Duration, traced, calibrate bool) error {
	if name == "repro" {
		return runRepro(window, traced)
	}
	sp, ok := specs[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if window <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	dir := filepath.Join(dataDir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	settle()
	defer func() {
		os.RemoveAll(dir)
		settle()
	}()
	if calibrate {
		sp.closed = true
	}
	printEnv(sp, seed, window, traced, dir)

	if !traced {
		ph, err := runPhase(sp, seed, window, filepath.Join(dir, "run"), nil, true)
		if err != nil {
			return failResult(ph, err)
		}
		if calibrate {
			fmt.Printf("capacity: %.2f ops/s closed-loop (%d ops in %v)\n",
				float64(len(ph.samples))/ph.end.Sub(ph.start).Seconds(), len(ph.samples), ph.end.Sub(ph.start).Round(time.Millisecond))
			return nil
		}
		if err := ph.valid(); err != nil {
			return err
		}
		m, lat, tails := ph.endToEnd(median(durations(ph.setups)))
		printJSON("tails", tails)
		printJSON("detail", ph.detail())
		fmt.Println("printed, not gated:")
		printMetrics(lat)
		return emit(ph, m)
	}

	// The traced run drives the same half-length schedule twice, on
	// fresh deployments: untraced, then traced. Comparing the two gives
	// the tracing overhead and checks both took the same code paths.
	plain, err := runPhase(sp, seed, window/2, filepath.Join(dir, "untraced"), nil, false)
	if err != nil {
		return failResult(plain, err)
	}
	ph, err := runPhase(sp, seed, window/2, filepath.Join(dir, "traced"), newRecorder(), false)
	if err != nil {
		return failResult(ph, err)
	}
	if err := ph.valid(); err != nil {
		return err
	}
	if err := samePaths(plain.paths(), ph.paths()); err != nil {
		return failResult(ph, fmt.Errorf("%w: traced and untraced runs took different code paths: %v (window requests by route: untraced %v, traced %v)",
			errCorrupt, err, plain.routes, ph.routes))
	}
	m, extra := ph.perLayer(plain)
	printJSON("detail", extra)
	return emit(ph, m)
}

// valid rejects a run whose open loop fell behind: latencies measured
// against a growing backlog describe the backlog, not the service.
func (ph *phase) valid() error {
	mid, end, growing := ph.backlogGrowing()
	fmt.Printf("backlog: %d ops at mid-window, %d at the end\n", mid, end)
	if growing {
		return fmt.Errorf("invalid run: backlog grew from %d to %d operations across the window; the offered rate exceeds capacity", mid, end)
	}
	return nil
}

// samePaths checks the traced run took the untraced run's code paths:
// the same requests per operation and zero-copy reads per chunk.
// fsyncs per put depend on how puts group under timing, so they are
// reported, not compared.
func samePaths(a, b pathCounts) error {
	check := func(what string, x, y float64) error {
		if x == 0 && y == 0 {
			return nil
		}
		if d := (y - x) / max(x, y); d > 0.05 || d < -0.05 {
			return fmt.Errorf("%s: %.3f untraced vs %.3f traced", what, x, y)
		}
		return nil
	}
	return errors.Join(
		check("requests per store", a.reqsPerStore, b.reqsPerStore),
		check("requests per dedup", a.reqsPerDedup, b.reqsPerDedup),
		check("requests per retrieve", a.reqsPerRetrieve, b.reqsPerRetrieve),
		check("stream reads per chunk", a.streamReadsPerChunk, b.streamReadsPerChunk),
	)
}

// failResult prints a failed run's result line when the failure is a
// correctness one, and passes the error on.
func failResult(ph *phase, err error) error {
	if errors.Is(err, errCorrupt) && ph != nil {
		r := result{Correct: false, Attempted: max(len(ph.samples), 1), Metrics: metricSet{}}
		for _, s := range ph.samples {
			if s.err != nil {
				r.Failed++
			}
		}
		fmt.Fprintln(os.Stderr, "perfbench: correctness failure:", err)
		emitResult(r)
	}
	return err
}

// emit prints the metric table and the result line.
func emit(ph *phase, m metricSet) error {
	r := result{Correct: true, Attempted: len(ph.samples), Metrics: m}
	for _, s := range ph.samples {
		if s.err != nil {
			r.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", s.err)
		}
	}
	fmt.Printf("error_rate: %.4f (%d of %d operations failed)\n", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	printMetrics(m)
	emitResult(r)
	return nil
}

// emitResult prints the result line, the last line of the output.
func emitResult(r result) {
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a result holds only numbers and strings
	}
	fmt.Println(string(line))
}

func printMetrics(m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func printJSON(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Printf("%s: %s\n", label, b)
}

// detail is the untraced run's supporting counts.
func (ph *phase) detail() map[string]any {
	fails := map[string]int{}
	for _, s := range ph.samples {
		if s.err != nil {
			fails[s.kind.String()]++
		}
	}
	var lags []float64
	for _, s := range ph.samples {
		lags = append(lags, ms(s.lag))
	}
	steps := map[string]float64{}
	for k, v := range ph.steps {
		steps[k] = v.Seconds()
	}
	return map[string]any{
		"plan":                ph.plan.describe(),
		"step_s":              steps,
		"window_requests":     ph.routes,
		"setup_s":             durations(ph.setups),
		"reopen_s":            durations(ph.reopens),
		"sched_lag_p99_ms":    percentile(lags, 99),
		"failed_by_kind":      fails,
		"unique_user_bytes":   ph.uniqueBytes(),
		"disk_bytes":          ph.diskBytes,
		"window_user_bytes":   ph.windowBytes(),
		"window_completed_at": ph.end.Sub(ph.start).Seconds(),
	}
}

// printEnv records the environment every result was measured in.
func printEnv(sp spec, seed uint64, window time.Duration, traced bool, dir string) {
	env := map[string]any{
		"workload":    sp.name,
		"seed":        seed,
		"window_s":    window.Seconds(),
		"traced":      traced,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
		"os_arch":     runtime.GOOS + "/" + runtime.GOARCH,
		"filesystem":  fsType(dir),
		"fsync":       "on (DiskStoreOptions.NoSync=false, metadata WAL group commit)",
		"cache_MB":    sp.cacheMB,
		"rate_ops_s":  sp.rate,
		"users":       numUsers,
		"parallel":    2,
		"deployment":  deploymentName(sp),
		"model_delay": "none (no UpstreamDelay/SleepUpstream, no InterChunkDelay)",
		"note":        "reads are served from the OS page cache, so latencies describe this machine, not a storage device",
	}
	printJSON("env", env)
}

func deploymentName(sp spec) string {
	var parts []string
	if sp.cluster {
		parts = append(parts, "4 nodes ReplicatedStore N=3 W=2 over DiskStore", "2 metadata shards (durable primary + lease standby, semi-sync)", "sharded RemoteMeta")
	} else {
		parts = append(parts, "1 node DiskStore", "colocated durable Metadata")
	}
	if sp.cacheMB > 0 {
		parts = append(parts, fmt.Sprintf("CachedStore %d MB", sp.cacheMB))
	}
	return strings.Join(parts, ", ")
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x2fc12fc1: "zfs", 0x6a656a63: "fakeowner",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
