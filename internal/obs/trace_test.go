package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Pid  int64   `json:"pid"`
	Tid  int64   `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// TestTraceRoundTrip records a realistic event mix through the file path
// and checks that the result is valid JSON whose span timestamps are
// monotonic — the invariants chrome://tracing needs to load the file.
func TestTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	tr, err := CreateTrace(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.ProcessName(0, "pfe0")
	tr.ThreadName(0, 1, "ppe slot 1")
	var ns int64
	for i := 0; i < 100; i++ {
		ns += int64(i%7)*137 + 1 // strictly increasing, exercises sub-µs fractions
		tr.Complete("ppe", "aggregate", 0, int64(i%4), ns, 250)
		if i%10 == 0 {
			tr.CounterValue("queue", "depth", 0, ns, float64(i%5))
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) != tr.Events() {
		t.Fatalf("decoded %d events, recorder says %d", len(events), tr.Events())
	}
	last := -1.0
	spans := 0
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		spans++
		if e.Ts <= last {
			t.Fatalf("span timestamps not monotonic: %v after %v", e.Ts, last)
		}
		last = e.Ts
		if e.Dur != 0.25 {
			t.Fatalf("dur = %v µs, want 0.25", e.Dur)
		}
	}
	if spans != 100 {
		t.Fatalf("decoded %d spans, want 100", spans)
	}
}

func TestTraceEventCap(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf, 3)
	for i := 0; i < 10; i++ {
		tr.Complete("c", "e", 0, 0, int64(i*1000), 10)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != 3 || tr.Dropped() != 7 {
		t.Fatalf("events=%d dropped=%d, want 3/7", tr.Events(), tr.Dropped())
	}
	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("capped trace is not valid JSON: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("decoded %d events, want 3", len(events))
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Complete("c", "e", 0, 0, 0, 0)
	tr.CounterValue("c", "e", 0, 0, 1)
	tr.ProcessName(0, "p")
	tr.ThreadName(0, 0, "t")
	if tr.Events() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil trace must read as empty")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceEscapesNames(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf, 0)
	tr.Complete("cat\"egory", "na\\me\n", 1, 2, 1500, 500)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("escaped trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if events[0].Name != "na\\me\n" || events[0].Cat != "cat\"egory" {
		t.Fatalf("round trip mangled names: %+v", events[0])
	}
	if events[0].Ts != 1.5 || events[0].Dur != 0.5 {
		t.Fatalf("ts/dur = %v/%v, want 1.5/0.5", events[0].Ts, events[0].Dur)
	}
}
