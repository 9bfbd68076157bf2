package main

import (
	"path/filepath"
	"testing"
	"time"
)

// tiny shrinks a workload to a few small files so every path of a run
// (setup, corpus, window, verification, reopen, the per-layer analysis)
// executes in seconds.
func tiny(sp spec) spec {
	sp.rate = 20
	if sp.corpusMinBytes > 0 {
		sp.corpusMinBytes = 24 << 20
		sp.cacheMB = 4
	}
	return sp
}

func TestSmokeServiceWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full deployments")
	}
	for _, name := range []string{"paper_mix", "read_zipf", "cluster_mix"} {
		t.Run(name, func(t *testing.T) {
			sp := tiny(specs[name])
			dir := t.TempDir()
			plain, err := runPhase(sp, 1, time.Second, filepath.Join(dir, "plain"), nil, true)
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			m, lat, _ := plain.endToEnd(median(durations(plain.setups)))
			for _, k := range []string{"goodput_MBps", "cpu_s_per_GB", "disk_bytes_per_user_byte", "rss_peak_MB", "setup_s"} {
				if m[k].Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, m[k].Value)
				}
			}
			for _, k := range []string{"store_p50_ms", "store_tail_ms", "retrieve_p50_ms", "retrieve_tail_ms", "dedup_p50_ms", "reopen_s"} {
				if lat[k].Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, lat[k].Value)
				}
			}
			traced, err := runPhase(sp, 1, time.Second, filepath.Join(dir, "traced"), newRecorder(), false)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if err := samePaths(plain.paths(), traced.paths()); err != nil {
				t.Errorf("code paths differ: %v\nuntraced %v\ntraced   %v", err, plain.routes, traced.routes)
			}
			pl, _ := traced.perLayer(plain)
			for _, k := range []string{"client.store_self_ms_per_MB", "wire.chunk_get_ms_per_MB", "frontend.op_store_ms_p50", "chunkstore.put_ms_p50", "meta.commit_ms_p50"} {
				if pl[k].Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, pl[k].Value)
				}
			}
			if r := pl["trace.residual_share"].Value; r < 0 || r > 0.5 {
				t.Errorf("trace.residual_share = %v, want within [0, 0.5]", r)
			}
		})
	}
}

func TestSmokeRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a dataset")
	}
	tm, err := reproOnce(reproConfig{users: 300, pcUsers: 100, seed: 1, flows: 10}, true)
	if err != nil {
		t.Fatal(err)
	}
	if tm.logs == 0 || tm.generate <= 0 || tm.add <= 0 || tm.run <= 0 {
		t.Errorf("unexpected timings %+v", tm)
	}
}
