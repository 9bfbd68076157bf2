package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{19, 0},    // even the median has fewer than 10 beyond
		{20, 50},   // rank 10 of 20: 10 beyond
		{39, 50},   // p75 would leave 9
		{40, 75},   // p75 leaves exactly 10
		{99, 75},   // p90 would leave 9
		{100, 90},  // p90 leaves exactly 10
		{200, 95},  // p95 leaves 10
		{999, 95},  // p99 would leave 9
		{1000, 99}, // p99 leaves 10
		{10000, 99.9},
	}
	for _, c := range cases {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0 {
			if beyond := c.n - 1 - rankOf(got, c.n); beyond < minBeyond {
				t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, got, beyond)
			}
		}
	}
}

func TestIncBeta(t *testing.T) {
	cases := []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},            // uniform
		{2, 2, 0.5, 0.5},            // symmetric
		{2, 3, 0.4, 0.5248},         // binomial tail: P(Bin(4, 0.4) >= 2)
		{0.5, 0.5, 0.25, 1.0 / 3.0}, // arcsine law
	}
	for _, c := range cases {
		if got := incBeta(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("I_%v(%v,%v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestPercentileHarrellDavis(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	// A symmetric sample's median is its centre.
	if got := percentile(xs, 50); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("p50 = %v, want 5.5", got)
	}
	if got := percentile(xs, 90); got < 8.5 || got > 10 {
		t.Errorf("p90 = %v, want within the top order statistics", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	// Across a gap the estimate moves smoothly: one more sample on
	// the high side must not jump the median from the low mode to the
	// high one.
	gap := []float64{1, 1, 1, 1, 1, 100, 100, 100, 100}
	lo, hi := percentile(gap, 50), percentile(append(gap, 100), 50)
	if hi-lo > 40 {
		t.Errorf("median jumped from %v to %v", lo, hi)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		// A window of 2 keeps two chunk transfers in flight: the
		// overlap counts once.
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"identical", []interval{{10, 20}, {10, 20}}, 90},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"clipped to parent", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside", []interval{{100, 120}}, 100},
		{"unsorted", []interval{{50, 70}, {0, 20}, {60, 80}}, 50},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBlockingPathAttribution(t *testing.T) {
	// op [0,100) with two overlapping round trips; the later one blocks.
	spans := []span{
		{id: 1, name: "client.store", start: 0, end: 100},
		{id: 2, parent: 1, name: "rt.bin_put", start: 10, end: 60},
		{id: 3, parent: 1, name: "rt.bin_put", start: 20, end: 90},
		{id: 4, parent: 3, name: "fe.bin_put", start: 30, end: 80},
	}
	v := newView(spans)
	got := map[string]int64{}
	v.blocking(0, 0, 100, func(name string, ns int64) { got[name] += ns })
	// [0,10) and [90,100) are the client's own; rt#3 blocks [20,90)
	// less its handler's [30,80); rt#2 blocks only [10,20), before rt#3
	// started, however long it ran alongside.
	want := map[string]int64{"client.store": 20, "rt.bin_put": 20 + 10, "fe.bin_put": 50}
	var total int64
	for name, ns := range got {
		total += ns
		if ns != want[name] {
			t.Errorf("%s: %d ns on the blocking path, want %d", name, ns, want[name])
		}
	}
	if total != 100 {
		t.Errorf("blocking path covers %d of 100 ns", total)
	}
	// Self times count overlap once but ignore blocking: rt#2's 50 ns
	// are its own although only 10 block the operation.
	if v.self[0] != 20 || v.self[1] != 50 || v.self[2] != 20 {
		t.Errorf("self = %v, want [20 50 20 50]", v.self)
	}
}

func TestMixtureQuantileClamped(t *testing.T) {
	alphas, mus := []float64{0.5, 0.5}, []float64{1, 100}
	if got := mixtureQuantile(alphas, mus, 0); got != minSize {
		t.Errorf("q(0) = %d, want the floor %d", got, minSize)
	}
	if got := mixtureQuantile(alphas, mus, 0.999); got != maxSize {
		t.Errorf("q(0.999) = %d, want the cap %d", got, maxSize)
	}
	a, b := mixtureQuantile(alphas, mus, 0.2), mixtureQuantile(alphas, mus, 0.4)
	if a >= b {
		t.Errorf("quantile not increasing: q(0.2)=%d q(0.4)=%d", a, b)
	}
}

func TestApportionSumsToN(t *testing.T) {
	counts := apportion([]float64{3, 2, 1}, 6, 10)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10 || counts[0] != 5 || counts[1] != 3 || counts[2] != 2 {
		t.Errorf("apportion = %v", counts)
	}
}

func TestPoolStampsMakeContentUnique(t *testing.T) {
	p := newPool(7)
	a := append([]byte(nil), p.fill(make([]byte, maxSize), file{id: 1, size: 3 * chunkSize})...)
	if !p.matches(a, file{id: 1, size: 3 * chunkSize}) {
		t.Fatal("content does not match its own file")
	}
	if p.matches(a, file{id: 2, size: 3 * chunkSize}) {
		t.Error("two files share content")
	}
	a[chunkSize+100] ^= 1
	if p.matches(a, file{id: 1, size: 3 * chunkSize}) {
		t.Error("a flipped byte went unnoticed")
	}
}

func TestPlanIsSeeded(t *testing.T) {
	sp := specs["paper_mix"]
	a, b := newPlan(sp, 3, 4e9), newPlan(sp, 3, 4e9)
	if len(a.window) != len(b.window) || len(a.files) != len(b.files) {
		t.Fatal("same seed, different plans")
	}
	for i := range a.window {
		if a.window[i] != b.window[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a.window[i], b.window[i])
		}
	}
	c := newPlan(sp, 4, 4e9)
	if len(c.window) != len(a.window) {
		t.Errorf("operation count depends on the seed: %d vs %d", len(c.window), len(a.window))
	}
}
