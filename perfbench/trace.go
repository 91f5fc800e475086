package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the tracer's origin; Parent indexes the enclosing
// span (-1 for a root); Unit is the measured unit the call served.
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Unit       int
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op returning span id -1.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, unit int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Unit: unit})
	return len(t.spans) - 1
}

// end closes a span.
func (t *tracer) end(id int) { t.endAs(id, "") }

// endAs closes a span and, when name is non-empty, renames it — for
// calls classified by their outcome (a read's ecc.Status).
func (t *tracer) endAs(id int, name string) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	if name != "" {
		t.spans[id].Name = name
	}
}

// record adds an already-finished span under parent: a call observed on
// another goroutine (a server-side runner), timed by its own clock
// readings. It belongs to its parent's unit.
func (t *tracer) record(name string, start, end time.Time, parent int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.origin)),
		End: int64(end.Sub(t.origin)), Parent: parent, Unit: t.spans[parent].Unit})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// checkNesting reports the first span that is unfinished or does not lie
// inside its parent.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never ended", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] escapes parent %d (%s) [%d,%d]",
				i, s.Name, s.Start, s.End, s.Parent, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// selfTimes returns, per span name, the summed self time in
// nanoseconds: each span's duration minus the union of its children's
// intervals, so children that overlap one another are subtracted once.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += s.dur() - unionLen(children[i], s.Start, s.End)
	}
	return out
}

// selfTimeNote lists every span name's summed self time, largest first:
// where the traced pass spent its time, each interval counted once.
func selfTimeNote(spans []span) string {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	b.WriteString("self time by span (ms):")
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.1f", n, float64(self[n])/1e6)
	}
	return b.String()
}

// unionLen is the total length of the union of the intervals, clipped
// to [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	flush := func() {
		s, e := max(curS, lo), min(curE, hi)
		if e > s {
			total += e - s
		}
	}
	for _, v := range iv {
		if curE < 0 || v[0] > curE {
			if curE >= 0 {
				flush()
			}
			curS, curE = v[0], v[1]
			continue
		}
		curE = max(curE, v[1])
	}
	flush()
	return total
}

// durationsMS collects the durations of every span with the given name,
// in milliseconds.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writeSpans writes one span per line (id parent unit name start_ns
// end_ns), gzip-compressed, for offline inspection.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "# id parent unit name start_ns end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d %d %d %s %d %d\n", i, s.Parent, s.Unit, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
