package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func mustReadDump(t *testing.T, path string) Dump {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read dump: %v", err)
	}
	var d Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, raw)
	}
	return d
}

func TestJSONLExporterWritesOneObjectPerLine(t *testing.T) {
	var buf bytes.Buffer
	exp := NewJSONLExporter(&buf)
	tr := New(Config{SampleEvery: 1})
	tr.AddExporter(exp)
	tr.Start("encode").Finish(nil)
	tr.Start("decode").Finish(errors.New("bad SIGNAL"))
	if err := exp.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var kinds []string
	for sc.Scan() {
		var s Snapshot
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line is not JSON: %v", err)
		}
		kinds = append(kinds, s.Kind)
	}
	if len(kinds) != 2 || kinds[0] != "encode" || kinds[1] != "decode" {
		t.Fatalf("exported kinds = %v, want [encode decode]", kinds)
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ budget int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errors.New("disk full")
	}
	f.budget -= len(p)
	return len(p), nil
}

func TestJSONLExporterStickyError(t *testing.T) {
	exp := NewJSONLExporter(&failWriter{})
	s := &Snapshot{TraceID: "0000000000000001", Kind: "encode"}
	if err := exp.ExportFrame(s); err == nil {
		t.Fatal("ExportFrame should fail on a failing writer")
	}
	if err := exp.ExportFrame(s); err == nil {
		t.Fatal("second ExportFrame should return the sticky error")
	}
	if err := exp.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Flush = %v, want sticky disk full", err)
	}
}

func TestExportErrorsAreCountedNotFatal(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	tr.AddExporter(NewJSONLExporter(&failWriter{}))
	f := tr.Start("encode")
	f.Finish(nil) // must not panic despite the failing exporter
	if n := len(tr.Retained()); n != 1 {
		t.Fatalf("retained %d, want 1 — export failure must not drop the frame", n)
	}
}

func TestWriteChromeTraceIsLoadableJSON(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	f := tr.Start("decode")
	f.Enqueued()
	f.Dequeued(1)
	m := f.Begin(rxViterbi)
	time.Sleep(time.Millisecond)
	m.End(0, nil)
	f.Finish(nil)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Retained()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has ph=%q, want X", ev.Name, ev.Ph)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Errorf("event %q has negative timing ts=%v dur=%v", ev.Name, ev.TS, ev.Dur)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"decode", "queue_wait", "wifi.rx.viterbi"} {
		if !names[want] {
			t.Errorf("chrome export missing %q event (have %v)", want, names)
		}
	}
}

func TestHandlerServesJSONAndChrome(t *testing.T) {
	old := Default()
	defer SetDefault(old)

	SetDefault(nil)
	rr := httptest.NewRecorder()
	Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	if rr.Code != 503 {
		t.Fatalf("disabled handler status = %d, want 503", rr.Code)
	}

	tr := New(Config{SampleEvery: 1})
	SetDefault(tr)
	tr.Start("encode").Finish(nil)

	rr = httptest.NewRecorder()
	Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	var body struct {
		Retained int         `json:"retained"`
		Frames   []*Snapshot `json:"frames"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	if body.Retained != 1 || len(body.Frames) != 1 {
		t.Fatalf("retained = %d frames = %d, want 1/1", body.Retained, len(body.Frames))
	}

	rr = httptest.NewRecorder()
	Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces?format=chrome", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "traceEvents") {
		t.Fatalf("chrome format: status=%d body=%q", rr.Code, rr.Body.String()[:min(120, rr.Body.Len())])
	}

	rr = httptest.NewRecorder()
	Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces?ring=flight", nil))
	if rr.Code != 200 {
		t.Fatalf("flight ring: status=%d", rr.Code)
	}
}

func TestDumpToFileRoundTrips(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	f := tr.Start("decode")
	f.Begin(stage("wifi.rx", "descramble")).End(0, nil)
	f.Finish(errors.New("timeout"))
	path := t.TempDir() + "/dump.json"
	if err := tr.DumpToFile(path, "test_dump"); err != nil {
		t.Fatalf("DumpToFile: %v", err)
	}
	d := mustReadDump(t, path)
	if d.Reason != "test_dump" || d.Total != 1 || len(d.Frames) != 1 {
		t.Fatalf("dump = %+v, want one recorded frame", d)
	}
	if len(d.Frames[0].Spans) != 1 || d.Frames[0].Spans[0].Name != "wifi.rx.descramble" {
		t.Fatalf("dump spans = %+v", d.Frames[0].Spans)
	}
}
