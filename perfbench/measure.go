package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"transer/internal/ml"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks; NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// opLatency returns the p50 and p97 of a workload's unit operations
// from per-pass lists of operation times (the same operations in the
// same order every pass). Each operation counts once, at its median
// over passes, so the figures do not depend on how many passes fit in
// the run.
func opLatency(passes [][]float64) (p50, p97 float64) {
	ops := make([]float64, len(passes[0]))
	for i := range ops {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p[i])
		}
		ops[i] = median(xs)
	}
	return median(ops), percentile(ops, 0.97)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// commit returns the VCS revision the binary was built from, when the
// build saw a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// digest accumulates an order-sensitive SHA-256 over answer parts.
type digest struct{ h [sha256.Size]byte }

func (d *digest) ints(tag string, xs []int) {
	h := sha256.New()
	h.Write(d.h[:])
	h.Write([]byte(tag))
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	copy(d.h[:], h.Sum(nil))
}

func (d *digest) String() string { return hex.EncodeToString(d.h[:8]) }

// confusion counts binary decisions against ground truth.
type confusion struct{ tp, fp, fn int }

func (c *confusion) add(pred, truth []int) {
	for i, p := range pred {
		switch {
		case p == 1 && truth[i] == 1:
			c.tp++
		case p == 1:
			c.fp++
		case truth[i] == 1:
			c.fn++
		}
	}
}

func (c confusion) f1() float64 {
	if c.tp == 0 {
		return 0
	}
	return 2 * float64(c.tp) / float64(2*c.tp+c.fp+c.fn)
}

// layers accumulates per-layer busy time and counts for the traced
// run. Spans are recorded from the benchmark's side of each call into
// a layer; top-level spans also count towards the wall time the trace
// covers (trace.unattributed_share).
type layers struct {
	mu      sync.Mutex
	busy    map[string]time.Duration
	count   map[string]float64
	covered time.Duration
}

func newLayers() *layers {
	return &layers{busy: map[string]time.Duration{}, count: map[string]float64{}}
}

// top times f as a top-level span of the named layer metric. All
// layers methods are no-ops beyond calling f on a nil receiver, the
// untraced case.
func (l *layers) top(name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	if l == nil {
		return d
	}
	l.mu.Lock()
	l.busy[name] += d
	l.covered += d
	l.mu.Unlock()
	return d
}

// span times f as a span nested inside a top-level one.
func (l *layers) span(name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	l.add(name, d)
	return d
}

func (l *layers) add(name string, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.busy[name] += d
	l.mu.Unlock()
}

func (l *layers) inc(name string, n float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.count[name] += n
	l.mu.Unlock()
}

// mlTimer wraps classifier factories to time Fit and PredictProba from
// outside. Predictions may run concurrently (ml.ParallelProba), so
// busy time is the wall time during which at least one call of a kind
// was in flight, not the sum over goroutines.
type mlTimer struct {
	mu       sync.Mutex
	inFlight [2]int
	since    [2]time.Time
	busy     [2]time.Duration
	calls    [2]int
	rows     [2]int
}

const (
	mlFit = iota
	mlPredict
)

func (t *mlTimer) enter(kind, rows int) {
	t.mu.Lock()
	if t.inFlight[kind] == 0 {
		t.since[kind] = time.Now()
	}
	t.inFlight[kind]++
	t.calls[kind]++
	t.rows[kind] += rows
	t.mu.Unlock()
}

func (t *mlTimer) exit(kind int) {
	t.mu.Lock()
	t.inFlight[kind]--
	if t.inFlight[kind] == 0 {
		t.busy[kind] += time.Since(t.since[kind])
	}
	t.mu.Unlock()
}

// total is the fit plus predict busy time so far (0 for nil).
func (t *mlTimer) total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.busy[mlFit] + t.busy[mlPredict]
}

func (t *mlTimer) wrap(f ml.Factory) ml.Factory {
	return func() ml.Classifier { return &timedClassifier{inner: f(), t: t} }
}

// report writes the ml.* per-layer metrics, divided by passes.
func (t *mlTimer) report(set func(string, float64), passes float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	set("ml.fit_ms", ms(t.busy[mlFit])/passes)
	set("ml.fit_calls", float64(t.calls[mlFit])/passes)
	set("ml.fit_rows", float64(t.rows[mlFit])/passes)
	set("ml.predict_ms", ms(t.busy[mlPredict])/passes)
	set("ml.predict_rows", float64(t.rows[mlPredict])/passes)
}

// report writes the accumulated layer metrics divided by passes.
func (l *layers) report(set func(string, float64), passes float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for name, d := range l.busy {
		set(name, ms(d)/passes)
	}
	for name, c := range l.count {
		set(name, c/passes)
	}
}

type timedClassifier struct {
	inner ml.Classifier
	t     *mlTimer
}

func (c *timedClassifier) Fit(x [][]float64, y []int) error {
	c.t.enter(mlFit, len(x))
	defer c.t.exit(mlFit)
	return c.inner.Fit(x, y)
}

func (c *timedClassifier) PredictProba(x [][]float64) []float64 {
	c.t.enter(mlPredict, len(x))
	defer c.t.exit(mlPredict)
	return c.inner.PredictProba(x)
}

// runtimeDelta reports GC and allocation activity over a measured
// interval.
type runtimeDelta struct{ before runtime.MemStats }

func startRuntimeDelta() *runtimeDelta {
	d := &runtimeDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

func (d *runtimeDelta) report(set func(string, float64)) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	set("runtime.gc_pause_ms", float64(after.PauseTotalNs-d.before.PauseTotalNs)/1e6)
	set("runtime.gc_cycles", float64(after.NumGC-d.before.NumGC))
	set("runtime.alloc_mb", float64(after.TotalAlloc-d.before.TotalAlloc)/(1<<20))
}
