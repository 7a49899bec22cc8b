package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The traced run wraps every call the benchmark makes into a layer in a
// host-time span: name, start, end, parent span and op id, with every
// span of one op sharing the op id. Spans stay in memory, one lane per
// bench worker so workers never contend, and are written at exit as
// Chrome trace_event complete ("X") events. Every span feeds the per-layer means; only the
// first maxKeptSpans are kept for the file, which keeps a 10-second
// traced run's file to a few megabytes.

const maxKeptSpans = 50000

type spanRec struct {
	name             string
	start, end       time.Duration // since the tracer's epoch
	id, parent, opID uint64
}

type spanStat struct {
	n     int
	total time.Duration
}

// lane is one bench worker's span buffer. A nil lane records nothing,
// which is how untraced sessions run the same code.
type lane struct {
	tid   int
	epoch time.Time
	keep  int
	next  uint64
	spans []spanRec
	stats map[string]*spanStat
}

type tracer struct {
	lanes []*lane
}

func newTracer(workers int) *tracer {
	t := &tracer{}
	epoch := time.Now()
	for i := range workers {
		t.lanes = append(t.lanes, &lane{
			tid:   i + 1,
			epoch: epoch,
			keep:  maxKeptSpans / workers,
			stats: map[string]*spanStat{},
		})
	}
	return t
}

// lane returns worker i's lane; a nil tracer yields a nil lane.
func (t *tracer) lane(i int) *lane {
	if t == nil {
		return nil
	}
	return t.lanes[i]
}

// now returns the span clock.
func (l *lane) now() time.Duration {
	if l == nil {
		return 0
	}
	return time.Since(l.epoch)
}

// newID returns a span id unique across lanes; 0 means "none".
func (l *lane) newID() uint64 {
	if l == nil {
		return 0
	}
	l.next++
	return uint64(l.tid)<<48 | l.next
}

// end records the span [start, now) under id (a fresh one when 0) and
// returns its id.
func (l *lane) end(name string, start time.Duration, id, parent, opID uint64) uint64 {
	if l == nil {
		return 0
	}
	if id == 0 {
		id = l.newID()
	}
	end := time.Since(l.epoch)
	st := l.stats[name]
	if st == nil {
		st = &spanStat{}
		l.stats[name] = st
	}
	st.n++
	st.total += end - start
	if len(l.spans) < l.keep {
		l.spans = append(l.spans, spanRec{name, start, end, id, parent, opID})
	}
	return id
}

// spanMeans sets the per-layer span metrics from every lane's spans.
func (t *tracer) spanMeans(m metricSet) {
	merged := map[string]*spanStat{}
	for _, l := range t.lanes {
		for name, st := range l.stats {
			agg := merged[name]
			if agg == nil {
				agg = &spanStat{}
				merged[name] = agg
			}
			agg.n += st.n
			agg.total += st.total
		}
	}
	for name, sm := range spanMetrics {
		if st := merged[name]; st != nil && st.n > 0 {
			m[sm.metric] = float64(st.total) / float64(st.n) / sm.perNS
		}
	}
}

// spanTotal returns the summed duration of every span with the name.
func (t *tracer) spanTotal(name string) time.Duration {
	var d time.Duration
	for _, l := range t.lanes {
		if st := l.stats[name]; st != nil {
			d += st.total
		}
	}
	return d
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the kept spans as a trace_event document: one
// process (pid) per workload, one thread (tid) per bench worker, events
// sorted by start so timestamps never decrease within the process.
func (t *tracer) writeChrome(path, workload string, pid int) error {
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": "bench " + workload},
	}}
	type laneSpan struct {
		spanRec
		tid int
	}
	var spans []laneSpan
	for _, l := range t.lanes {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: l.tid,
			Args: map[string]any{"name": fmt.Sprintf("bench worker %d", l.tid)},
		})
		for _, s := range l.spans {
			spans = append(spans, laneSpan{s, l.tid})
		}
	}
	slices.SortStableFunc(spans, func(a, b laneSpan) int { return cmp.Compare(a.start, b.start) })
	for _, s := range spans {
		dur := float64(s.end-s.start) / 1e3
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: &dur,
			Pid: pid, Tid: s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.opID},
		})
	}
	buf, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// cpuGroups are the cpu_share.* groups: the simulator's internal
// packages by directory, the Go runtime, and everything else (the
// benchmark itself, the standard library, and the smaller internal
// packages).
var cpuGroups = []string{"sim", "mem", "vm", "netsim", "core", "pagecache",
	"blockdev", "workload", "experiments", "digest", "runtime", "other"}

// cpuShares turns a CPU profile into each group's share of self time,
// using the per-file self times of `go tool pprof -top -files`.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-files",
		"-nodecount=0", "-nodefraction=0", "-edgefraction=0", "-unit=ms", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	self := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	rows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 5 && f[0] == "flat" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: row %q: %w", sc.Text(), err)
		}
		self[cpuGroup(f[5])] += ms
		total += ms
	}
	shares := map[string]float64{}
	for _, g := range cpuGroups {
		shares[g] = ratio(self[g], total) // a run too short for one sample reads 0
	}
	return shares, nil
}

// cpuGroup maps a source file to its cpu_share group by directory:
// the Go runtime (runtime and internal/runtime/...), one of the
// simulator's internal packages, or other. It accepts both -trimpath
// names and absolute paths.
func cpuGroup(file string) string {
	dir := path.Dir("/" + filepath.ToSlash(file))
	if strings.HasSuffix(dir, "/runtime") || strings.Contains(dir, "/internal/runtime") {
		return "runtime"
	}
	if i := strings.LastIndex(dir, "/internal/"); i >= 0 {
		if pkg := dir[i+len("/internal/"):]; slices.Contains(cpuGroups, pkg) {
			return pkg
		}
	}
	return "other"
}
