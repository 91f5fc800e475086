// The versioned -trace file format. A trace file is line-oriented text:
//
//	# safeguard-trace v1
//	# meta key=value          (sorted, one per key)
//	<event lines, oldest first, in Event.String form>
//	# dropped N               (only when the ring evicted events)
//
// The header makes yesterday's artifacts self-describing: the version
// line lets readers reject formats they do not understand instead of
// mis-parsing them, and the meta lines carry what the producing tool
// knew (tool name, scheme, geometry) so an analysis never has to guess
// where a trace came from. Nothing in the file reads a wall clock —
// identical runs produce identical bytes.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// TraceFormatVersion is the trace file format this build writes and reads.
const TraceFormatVersion = 1

// traceMagic prefixes the version line.
const traceMagic = "# safeguard-trace v"

// TraceFile is a parsed trace artifact.
type TraceFile struct {
	// Version is the format version from the header line.
	Version int
	// Meta holds the producer's "# meta k=v" annotations.
	Meta map[string]string
	// Events are the traced events, oldest first.
	Events []Event
	// Dropped is the ring's eviction count recorded in the trailer.
	Dropped uint64
}

// WriteTraceFile renders the tracer's buffered events as a versioned
// trace file. Meta keys are written sorted; a nil tracer writes a valid
// header-only file.
func WriteTraceFile(w io.Writer, meta map[string]string, t *Tracer) error {
	return writeTrace(w, meta, t.Events(), t.Dropped())
}

// writeTrace renders one trace file: header, sorted meta, events, and
// the dropped trailer when positive.
func writeTrace(w io.Writer, meta map[string]string, events []Event, dropped uint64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s%d\n", traceMagic, TraceFormatVersion)
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(bw, "# meta %s=%s\n", k, meta[k])
	}
	for _, e := range events {
		fmt.Fprintln(bw, e.String())
	}
	if dropped > 0 {
		fmt.Fprintf(bw, "# dropped %d\n", dropped)
	}
	return bw.Flush()
}

// ReadTraceFile parses a versioned trace file. A missing or unsupported
// version line is an error — pre-versioning event dumps and future
// formats are rejected, not guessed at — and so is a meta key given
// twice, since the format writes one line per key.
func ReadTraceFile(r io.Reader) (*TraceFile, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("telemetry: empty trace file (no version header)")
	}
	first := sc.Text()
	if !strings.HasPrefix(first, traceMagic) {
		return nil, fmt.Errorf("telemetry: not a versioned trace file (first line %q, want %q<version>)", first, traceMagic)
	}
	version, err := strconv.Atoi(strings.TrimPrefix(first, traceMagic))
	if err != nil {
		return nil, fmt.Errorf("telemetry: bad trace version line %q: %w", first, err)
	}
	if version != TraceFormatVersion {
		return nil, fmt.Errorf("telemetry: unsupported trace format v%d (this build reads v%d)", version, TraceFormatVersion)
	}
	tf := &TraceFile{Version: version, Meta: map[string]string{}}
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case text == "":
			continue
		case strings.HasPrefix(text, "# meta "):
			kv := strings.TrimPrefix(text, "# meta ")
			k, v, ok := strings.Cut(kv, "=")
			// A carriage return inside a meta line cannot survive a
			// rewrite: the line scanner strips one before the newline.
			if !ok || strings.ContainsRune(kv, '\r') {
				return nil, fmt.Errorf("telemetry: trace line %d: bad meta %q", line, text)
			}
			if _, dup := tf.Meta[k]; dup {
				return nil, fmt.Errorf("telemetry: trace line %d: duplicate meta key %q", line, k)
			}
			tf.Meta[k] = v
		case strings.HasPrefix(text, "# dropped "):
			d, err := strconv.ParseUint(strings.TrimPrefix(text, "# dropped "), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: trace line %d: bad dropped trailer %q", line, text)
			}
			tf.Dropped = d
		case strings.HasPrefix(text, "#"):
			continue // unknown comment: tolerated for forward extension
		default:
			e, err := ParseEvent(text)
			if err != nil {
				return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
			}
			tf.Events = append(tf.Events, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tf, nil
}

// kindNames maps the serialized kind tokens back to EventKinds.
var kindNames = map[string]EventKind{}

func init() {
	for k := EvACT; k <= EvResponseStep; k++ {
		kindNames[k.String()] = k
	}
}

// ParseEvent inverts Event.String: parsing a rendered event yields an
// event that renders identically. Coordinate fields a kind does not
// serialize parse as the kind's documented defaults (0, or -1 for REF's
// bank/row).
func ParseEvent(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Event{}, fmt.Errorf("bad event %q", line)
	}
	cycle, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad event cycle in %q: %w", line, err)
	}
	kind, ok := kindNames[fields[1]]
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q in %q", fields[1], line)
	}
	e := Event{Cycle: cycle, Kind: kind}
	if kind == EvREF {
		e.Bank, e.Row = -1, -1
	}
	for _, f := range fields[2:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Event{}, fmt.Errorf("bad event field %q in %q", f, line)
		}
		switch k {
		case "rank", "bank", "row":
			n, err := strconv.Atoi(v)
			if err != nil {
				return Event{}, fmt.Errorf("bad %s in %q: %w", k, line, err)
			}
			switch k {
			case "rank":
				e.Rank = n
			case "bank":
				e.Bank = n
			case "row":
				e.Row = n
			}
		case "addr":
			n, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				return Event{}, fmt.Errorf("bad addr in %q: %w", line, err)
			}
			e.Addr = n
		case "status", "step", "ok":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Event{}, fmt.Errorf("bad %s in %q: %w", k, line, err)
			}
			e.Arg = n
		case "aux":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Event{}, fmt.Errorf("bad aux in %q: %w", line, err)
			}
			e.Aux = n
		default:
			return Event{}, fmt.Errorf("unknown event field %q in %q", k, line)
		}
	}
	return e, nil
}
