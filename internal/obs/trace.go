package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// DefaultTraceMaxEvents bounds a trace file to roughly a couple hundred
// megabytes; past it events are dropped and counted (Dropped) so a long
// -full sweep cannot fill the disk. The cutoff is deterministic because the
// simulator emits events in a deterministic order.
const DefaultTraceMaxEvents = 1 << 21

// Trace records chrome://tracing "Trace Event Format" events into a JSON
// array. All methods are safe for concurrent use and no-op on a nil
// receiver, so call sites can be unconditional:
//
//	var tr *obs.Trace // nil: tracing off
//	tr.Complete("ppe", "aggregate", 0, 3, startNs, durNs)
//
// Timestamps and durations are virtual nanoseconds; they are written as
// the format's microsecond doubles with nanosecond precision. Close
// finishes the JSON array, but chrome://tracing and Perfetto also load a
// truncated file (the array format tolerates a missing terminator).
type Trace struct {
	mu      sync.Mutex
	w       *bufio.Writer
	c       io.Closer
	scratch []byte
	events  int
	max     int
	dropped uint64
	closed  bool
}

// NewTrace wraps w in a recorder. maxEvents of 0 means
// DefaultTraceMaxEvents; negative means unlimited.
func NewTrace(w io.Writer, maxEvents int) *Trace {
	if maxEvents == 0 {
		maxEvents = DefaultTraceMaxEvents
	}
	t := &Trace{w: bufio.NewWriterSize(w, 1<<16), max: maxEvents}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	t.w.WriteString("[\n")
	return t
}

// CreateTrace creates (truncating) a trace file at path.
func CreateTrace(path string, maxEvents int) (*Trace, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create trace: %w", err)
	}
	return NewTrace(f, maxEvents), nil
}

// Complete records a ph:"X" event: a span of durNanos starting at tsNanos
// on track (pid, tid).
func (t *Trace) Complete(cat, name string, pid, tid int64, tsNanos, durNanos int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.begin(cat, name, 'X', pid, tid, tsNanos)
	if b == nil {
		return
	}
	b = append(b, `,"dur":`...)
	b = appendMicros(b, durNanos)
	t.finish(b)
}

// CounterValue records a ph:"C" counter sample; the viewer plots each
// counter name as a filled series per pid.
func (t *Trace) CounterValue(cat, name string, pid int64, tsNanos int64, value float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.begin(cat, name, 'C', pid, 0, tsNanos)
	if b == nil {
		return
	}
	b = append(b, `,"args":{"value":`...)
	b = strconv.AppendFloat(b, value, 'g', -1, 64)
	b = append(b, '}')
	t.finish(b)
}

// ProcessName records metadata naming a pid track group.
func (t *Trace) ProcessName(pid int64, name string) { t.meta("process_name", pid, 0, name) }

// ThreadName records metadata naming a (pid, tid) track.
func (t *Trace) ThreadName(pid, tid int64, name string) { t.meta("thread_name", pid, tid, name) }

func (t *Trace) meta(kind string, pid, tid int64, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || !t.admit() {
		return
	}
	b := t.scratch[:0]
	if t.events > 0 {
		b = append(b, ",\n"...)
	}
	b = append(b, `{"ph":"M","name":"`...)
	b = append(b, kind...)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, pid, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, tid, 10)
	b = append(b, `,"args":{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, '}')
	t.finish(b)
}

// Dropped reports how many events were discarded after the event cap.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events reports how many events have been recorded.
func (t *Trace) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Close terminates the JSON array and closes the underlying file, if any.
// Further events are discarded. Safe to call more than once.
func (t *Trace) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	t.w.WriteString("\n]\n")
	err := t.w.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// admit applies the event cap. Callers hold t.mu.
func (t *Trace) admit() bool {
	if t.max >= 0 && t.events >= t.max {
		t.dropped++
		return false
	}
	return true
}

// begin starts one event object in the scratch buffer, or returns nil if
// the trace is closed or capped. Callers hold t.mu.
func (t *Trace) begin(cat, name string, ph byte, pid, tid int64, tsNanos int64) []byte {
	if t.closed || !t.admit() {
		return nil
	}
	b := t.scratch[:0]
	if t.events > 0 {
		b = append(b, ",\n"...)
	}
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"cat":`...)
	b = strconv.AppendQuote(b, cat)
	b = append(b, `,"ph":"`...)
	b = append(b, ph)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, pid, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, tid, 10)
	b = append(b, `,"ts":`...)
	b = appendMicros(b, tsNanos)
	return b
}

// finish closes the event object and writes it. Callers hold t.mu.
func (t *Trace) finish(b []byte) {
	b = append(b, '}')
	t.w.Write(b)
	t.scratch = b[:0]
	t.events++
}

// appendMicros renders nanoseconds as the trace format's microsecond
// doubles with three decimals, without float rounding.
func appendMicros(b []byte, ns int64) []byte {
	neg := ns < 0
	if neg {
		ns = -ns
		b = append(b, '-')
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	if frac != 0 {
		b = append(b, '.')
		b = append(b, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	}
	return b
}
