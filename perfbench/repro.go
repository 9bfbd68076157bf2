package main

import (
	"fmt"
	"runtime"
	"time"

	"mcloud/internal/core"
	"mcloud/internal/report"
	"mcloud/internal/workload"
)

// The repro workload runs the analysis pipeline mcloud.Reproduce runs,
// at mcsrepro's defaults, step by step so each module is timed apart.
// Its dataset is fixed (seed 1), so the log count is checkable exactly.
type reproConfig struct {
	users, pcUsers int
	seed           uint64
	flows          int
	// wantLogs, when set, is the exact log count, and every comparison
	// row must land inside its band.
	wantLogs int64
}

var reproDefaults = reproConfig{users: 10000, pcUsers: 4000, seed: 1, flows: 150, wantLogs: 2623106}

type reproTimes struct {
	setup, generate, add, run, idle, compare time.Duration
	logs                                     int64
}

func (t reproTimes) total() time.Duration {
	return t.setup + t.generate + t.add + t.run + t.idle + t.compare
}

// reproOnce runs the pipeline once. Timing each log's generation apart
// from its analysis costs two clock reads per log, so the untraced run
// times the merged stream as one step.
func reproOnce(cfg reproConfig, split bool) (reproTimes, error) {
	var t reproTimes
	start := time.Now()
	g, err := workload.New(workload.Config{Users: cfg.users, PCOnlyUsers: cfg.pcUsers, Seed: cfg.seed})
	if err != nil {
		return t, err
	}
	a := core.NewAnalyzer(core.Options{Start: g.Config().Start, Days: g.Config().Days})
	t.setup = time.Since(start)

	start = time.Now()
	s := g.Stream()
	if split {
		for {
			t0 := time.Now()
			l, ok := s.Next()
			t1 := time.Now()
			if !ok {
				t.generate += t1.Sub(t0)
				break
			}
			a.Add(l)
			t.generate += t1.Sub(t0)
			t.add += time.Since(t1)
		}
	} else {
		a.AddStream(s)
		t.generate = time.Since(start)
	}
	start = time.Now()
	res, err := a.Run()
	if err != nil {
		return t, err
	}
	t.run = time.Since(start)
	t.logs = res.Logs

	start = time.Now()
	idle, err := core.RunIdleTimeStudy(core.IdleTimeConfig{Flows: cfg.flows, Seed: cfg.seed + 1})
	if err != nil {
		return t, err
	}
	t.idle = time.Since(start)

	start = time.Now()
	rows := report.Compare(res, idle)
	t.compare = time.Since(start)

	if cfg.wantLogs == 0 {
		return t, nil
	}
	if res.Logs != cfg.wantLogs {
		return t, fmt.Errorf("%w: analyzed %d logs, want %d", errCorrupt, res.Logs, cfg.wantLogs)
	}
	if ok, total := report.Summary(rows); ok != total {
		return t, fmt.Errorf("%w: %d of %d comparison rows outside their bands", errCorrupt, total-ok, total)
	}
	return t, nil
}

// runRepro repeats the pipeline until the window has passed (at least
// once) and reports medians.
func runRepro(window time.Duration, traced bool) error {
	printJSON("env", map[string]any{
		"workload": "repro", "users": reproDefaults.users, "pc_users": reproDefaults.pcUsers,
		"dataset_seed": reproDefaults.seed, "idle_flows": reproDefaults.flows, "traced": traced,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
	})
	var runs []reproTimes
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < window {
		t, err := reproOnce(reproDefaults, traced)
		if err != nil {
			r := result{Correct: false, Attempted: len(runs) + 1, Failed: 1, Metrics: metricSet{}}
			printJSON("error", err.Error())
			emitResult(r)
			return err
		}
		runs = append(runs, t)
	}
	pick := func(f func(reproTimes) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	m := metricSet{}
	if traced {
		m.set("workload.logs_per_s", pick(func(t reproTimes) float64 { return float64(t.logs) / t.generate.Seconds() }), "1/s")
		m.set("core.add_ns_per_log", pick(func(t reproTimes) float64 { return float64(t.add.Nanoseconds()) / float64(t.logs) }), "ns")
		m.set("core.run_s", pick(func(t reproTimes) float64 { return t.run.Seconds() }), "s")
		m.set("tcpsim.idle_study_s", pick(func(t reproTimes) float64 { return t.idle.Seconds() }), "s")
		m.set("report.compare_ms", pick(func(t reproTimes) float64 { return ms(t.compare) }), "ms")
	} else {
		m.set("repro_logs_per_s", pick(func(t reproTimes) float64 { return float64(t.logs) / t.total().Seconds() }), "1/s")
		m.set("setup_s", pick(func(t reproTimes) float64 { return t.setup.Seconds() }), "s")
		m.set("rss_peak_MB", peakRSSMB(), "MB")
	}
	printMetrics(m)
	emitResult(result{Correct: true, Attempted: len(runs), Metrics: m})
	return nil
}
