package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/digest"
)

// A scenario runs one workload: it drives the simulator's layers through
// their public functions. setup generates the inputs from the seed and
// builds the rig; session runs input set k of the pool. Sessions are
// independent and deterministic: input set k always produces the same
// results, so the timed phase cycles through the pool and checks every
// repeat against the first pass.
type scenario interface {
	setup(seed uint64) error
	poolSize() int
	// session runs input set k; tr is nil in untraced sessions.
	session(k int, tr *tracer, p pass) sessionOut
	// model summarizes the first pass's simulated results.
	model() modelStats
	// layers adds the workload's per-layer metrics for ops completed
	// ops, reading the spans of the traced sessions from tr.
	layers(m metricSet, ops int, tr *tracer)
}

// modelStats are the model metrics: simulated per-op latency quantiles
// (µs) over samples ops, and simulated bytes over simulated time.
type modelStats struct {
	p50, p99, mbPerS float64
	samples          int
}

// latencyModel summarizes per-op simulated latencies (µs) and the
// simulated bytes they moved.
func latencyModel(lat []float64, bytes, simUS float64) modelStats {
	return modelStats{midQuantile(lat, 0.50), midQuantile(lat, 0.99), ratio(bytes, simUS), len(lat)}
}

// midQuantile is the p-quantile of v on the mid-distribution (Parzen's
// mid-quantile): each distinct value sits at the middle of its step of
// the empirical distribution, and quantiles interpolate linearly between
// those points. Simulated latencies repeat exactly (a miss that pays one
// seek costs the same every time), and a nearest-rank median that lands
// on such a tie reads the same for every seed; the mid-quantile moves
// with the tie's share of the samples. It is 0 for no samples.
func midQuantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := float64(len(s))
	var xs, mids []float64
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j]-s[i] < 1e-3 {
			j++
		}
		xs = append(xs, s[i])
		mids = append(mids, (float64(i)+float64(j-i)/2)/n)
		i = j
	}
	k, _ := slices.BinarySearch(mids, p)
	switch {
	case k == 0:
		return xs[0]
	case k == len(xs):
		return xs[len(xs)-1]
	}
	f := (p - mids[k-1]) / (mids[k] - mids[k-1])
	return xs[k-1] + f*(xs[k]-xs[k-1])
}

// pass says which part of a run a session belongs to. Warm-up sessions
// feed no metric; first-pass sessions feed the model metrics and the
// digest; every timed session feeds the per-layer counters.
type pass int

const (
	warmUp pass = iota
	firstPass
	repeatPass
)

type sessionOut struct {
	ops, failed int
	digest      string // fold of every simulated result, in input order
	errs        []string
}

// setupReps is how many times a run sets up; setup_s is their median,
// and the last setup's rig runs the timed phase.
const setupReps = 5

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int    // bench workers for the fan-out workloads
	spans    string // traced run: span file
	cpuprof  string // traced run: CPU profile
}

type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func currentHost() hostInfo {
	return hostInfo{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU()}
}

// runRecord is everything one run measured; compare reads these back.
type runRecord struct {
	Workload     string    `json:"workload"`
	Seed         uint64    `json:"seed"`
	Trace        bool      `json:"trace"`
	Host         hostInfo  `json:"host"`
	Digest       string    `json:"digest"`
	Sessions     int       `json:"sessions"`
	Pool         int       `json:"pool"`
	FirstPassOps int       `json:"first_pass_ops"`
	ModelSamples int       `json:"model_samples"`
	Attempted    int       `json:"attempted"`
	Failed       int       `json:"failed"`
	PaperErrPct  float64   `json:"paper_err_pct"`
	SliceRates   []float64 `json:"slice_ops_per_s,omitempty"`
	SetupTimes   []float64 `json:"setup_times_s"`
	Errors       []string  `json:"errors,omitempty"`
	Metrics      metricSet `json:"metrics"`
}

// maxErrors caps the failure messages a run keeps for its report.
const maxErrors = 10

func (r *runRecord) fail(n int, errs ...string) {
	r.Failed += n
	for _, e := range errs {
		if len(r.Errors) < maxErrors {
			r.Errors = append(r.Errors, e)
		}
	}
}

type sessionTiming struct {
	ops    int
	sec    float64
	traced bool
}

// run executes one benchmark run of w: setupReps setups, then a timed
// phase of at least one pass over the pool that lasts cfg.seconds.
// Untraced runs report the end-to-end metrics; traced runs alternate
// traced and untraced sessions and report the per-layer metrics.
func run(w scenario, cfg runConfig) (*runRecord, error) {
	rec := &runRecord{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Host: currentHost(), Metrics: metricSet{}}

	for range setupReps {
		runtime.GC() // every set-up starts from the same collected heap
		t0 := time.Now()
		if err := w.setup(cfg.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		warm := w.session(0, nil, warmUp)
		rec.SetupTimes = append(rec.SetupTimes, time.Since(t0).Seconds())
		if warm.failed > 0 {
			rec.Attempted += warm.ops
			rec.fail(warm.failed, warm.errs...)
		}
	}

	var tr *tracer
	var prof *os.File
	if cfg.trace {
		tr = newTracer(max(1, cfg.workers))
		var err error
		if prof, err = os.Create(cfg.cpuprof); err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}

	pool := w.poolSize()
	first := make([]string, pool)
	d := digest.New()
	var timings []sessionTiming
	var rss []float64 // resident set samples, MB
	var lastRSS time.Time
	rt0 := readRuntime()
	start := time.Now()
	for i := 0; i < pool || time.Since(start).Seconds() < cfg.seconds; i++ {
		k := i % pool
		var str *tracer
		if i%2 == 1 {
			str = tr
		}
		p := repeatPass
		if i < pool {
			p = firstPass
		}
		t0 := time.Now()
		out := w.session(k, str, p)
		timings = append(timings, sessionTiming{out.ops - out.failed, time.Since(t0).Seconds(), str != nil})
		rec.Attempted += out.ops
		rec.fail(out.failed, out.errs...)
		if time.Since(lastRSS) >= rssEvery {
			lastRSS = time.Now()
			v, err := procStatusMB("VmRSS")
			if err != nil {
				return nil, err
			}
			rss = append(rss, v)
		}
		if i < pool {
			first[k] = out.digest
			d.Addf("session %d %s\n", k, out.digest)
			rec.FirstPassOps += out.ops
		} else if out.digest != first[k] {
			rec.fail(out.ops-out.failed, fmt.Sprintf("session %d (repeat of input set %d): digest %s, first pass %s",
				i, k, out.digest, first[k]))
		}
	}
	wall := time.Since(start)
	rt1 := readRuntime()
	rec.Sessions = len(timings)
	rec.Pool = pool
	rec.Digest = d.Hex()

	model := w.model()
	rec.ModelSamples = model.samples
	errPct, err := paperErrPct()
	if err != nil {
		return nil, err
	}
	rec.PaperErrPct = errPct

	completed := 0
	for _, t := range timings {
		completed += t.ops
	}
	m := rec.Metrics
	if !cfg.trace {
		rec.SliceRates = sliceRates(timings)
		m["setup_s"] = median(rec.SetupTimes)
		m["ops_per_s"] = median(rec.SliceRates)
		m["rss_mb"] = median(rss)
		m["model_latency_us_p50"] = model.p50
		m["model_latency_us_p99"] = model.p99
		m["model_mb_per_s"] = model.mbPerS
		return rec, nil
	}

	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	shares, err := cpuShares(cfg.cpuprof)
	if err != nil {
		return nil, err
	}
	for g, s := range shares {
		m["cpu_share."+g] = s
	}
	var tracedOps, untracedOps int
	var tracedSec, untracedSec float64
	for _, t := range timings {
		if t.traced {
			tracedOps, tracedSec = tracedOps+t.ops, tracedSec+t.sec
		} else {
			untracedOps, untracedSec = untracedOps+t.ops, untracedSec+t.sec
		}
	}
	if tracedSec > 0 && untracedOps > 0 {
		m["bench.trace_overhead_frac"] = 1 - (float64(tracedOps)/tracedSec)/(float64(untracedOps)/untracedSec)
	}
	ops := float64(max(completed, 1))
	m["go.alloc_bytes_per_op"] = (rt1.allocBytes - rt0.allocBytes) / ops
	m["go.gc_cycles_per_kop"] = (rt1.gcCycles - rt0.gcCycles) * 1000 / ops
	m["go.gc_pause_frac"] = (rt1.pauseNS - rt0.pauseNS) / float64(wall.Nanoseconds())
	m["bench.model_samples"] = float64(model.samples)
	if m["bench.peak_rss_mb"], err = procStatusMB("VmHWM"); err != nil {
		return nil, err
	}
	m["experiments.paper_err_pct"] = errPct
	tr.spanMeans(m)
	w.layers(m, completed, tr)
	if err := tr.writeChrome(cfg.spans, cfg.workload, workloadPID(cfg.workload)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return rec, nil
}

// sliceRates splits the untraced sessions, in order, into up to ten
// slices of equal session count and returns each slice's ops per
// second.
func sliceRates(ts []sessionTiming) []float64 {
	var untraced []sessionTiming
	for _, t := range ts {
		if !t.traced {
			untraced = append(untraced, t)
		}
	}
	n := len(untraced)
	s := min(10, n)
	rates := make([]float64, 0, s)
	for j := range s {
		ops, sec := 0, 0.0
		for _, t := range untraced[j*n/s : (j+1)*n/s] {
			ops += t.ops
			sec += t.sec
		}
		rates = append(rates, ratio(float64(ops), sec))
	}
	return rates
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

type runtimeSample struct {
	allocBytes, gcCycles, pauseNS float64
}

func readRuntime() runtimeSample {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{
		allocBytes: float64(samples[0].Value.Uint64()),
		gcCycles:   float64(samples[1].Value.Uint64()),
		pauseNS:    float64(ms.PauseTotalNs),
	}
}

// rssEvery is how often the timed phase samples the resident set.
const rssEvery = 50 * time.Millisecond

// procStatusMB reads a memory field of /proc/self/status, given there in
// KiB, and returns it in MB.
func procStatusMB(field string) (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/self/status: %q: %w", line, err)
			}
			return kib * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status: no %s", field)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
