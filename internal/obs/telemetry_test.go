package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewTraceIDShapeAndUniqueness(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q: want 16 hex chars", id)
		}
		if SanitizeTraceID(id) != id {
			t.Fatalf("minted trace ID %q does not pass its own sanitizer", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q after %d mints", id, i)
		}
		seen[id] = true
	}
}

func TestSanitizeTraceID(t *testing.T) {
	cases := map[string]string{
		"":                      "",
		"abc-123_X.y:z":         "abc-123_X.y:z",
		"has space":             "",
		"has\ttab":              "",
		"has\nnewline":          "",
		`has"quote`:             "",
		`has\backslash`:         "",
		"caf\xc3\xa9":           "", // non-ASCII
		strings.Repeat("a", 64): strings.Repeat("a", 64),
		strings.Repeat("a", 65): "",
		"0123456789abcdef":      "0123456789abcdef",
	}
	for in, want := range cases {
		if got := SanitizeTraceID(in); got != want {
			t.Errorf("SanitizeTraceID(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTraceIDContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if id := TraceIDFromContext(ctx); id != "" {
		t.Errorf("empty context carries trace ID %q", id)
	}
	ctx = WithTraceID(ctx, "deadbeef00000000")
	if id := TraceIDFromContext(ctx); id != "deadbeef00000000" {
		t.Errorf("round trip returned %q", id)
	}
}

// TestRecorderTraceID pins how a manifest takes its trace ID from the
// span recorder (the tracer) that timed its stages.
func TestRecorderTraceID(t *testing.T) {
	var nilTr *Tracer
	if nilTr.TraceID() != "" {
		t.Error("nil tracer returned a trace ID")
	}
	tr := NewTracer("abc", "local")
	var m Manifest
	m.FillStages(tr)
	if m.TraceID != "abc" {
		t.Errorf("manifest trace ID %q, want abc", m.TraceID)
	}
	// An explicitly set manifest ID wins over the tracer's.
	m2 := Manifest{TraceID: "explicit"}
	m2.FillStages(tr)
	if m2.TraceID != "explicit" {
		t.Errorf("manifest trace ID %q, want explicit", m2.TraceID)
	}
}

func TestFlightRecorderRingSemantics(t *testing.T) {
	f := NewFlightRecorder(16)
	if f.Size() != 16 {
		t.Fatalf("size %d, want minimum 16", f.Size())
	}
	for i := 0; i < 40; i++ {
		f.Record(RequestEvent{TraceID: "t", Endpoint: "/v1/profile", Status: 200 + i})
	}
	if f.Total() != 40 {
		t.Errorf("total %d, want 40", f.Total())
	}
	recent := f.Recent(0)
	if len(recent) != 16 {
		t.Fatalf("retained %d events, want 16", len(recent))
	}
	// Newest first: statuses 239 down to 224, seq strictly descending.
	for i, ev := range recent {
		if ev.Status != 239-i {
			t.Fatalf("event %d has status %d, want %d", i, ev.Status, 239-i)
		}
		if i > 0 && ev.Seq >= recent[i-1].Seq {
			t.Fatalf("seq not descending at %d: %d then %d", i, recent[i-1].Seq, ev.Seq)
		}
	}
	if got := f.Recent(3); len(got) != 3 || got[0].Status != 239 {
		t.Errorf("Recent(3): %+v", got)
	}
	// Asking for more than retained returns what is retained.
	if got := f.Recent(1000); len(got) != 16 {
		t.Errorf("Recent(1000) returned %d events", len(got))
	}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	f := NewFlightRecorder(64)
	f.Record(RequestEvent{Endpoint: "a"})
	f.Record(RequestEvent{Endpoint: "b"})
	got := f.Recent(0)
	if len(got) != 2 || got[0].Endpoint != "b" || got[1].Endpoint != "a" {
		t.Errorf("partial ring: %+v", got)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Record(RequestEvent{}) // must not panic
	if f.Recent(5) != nil || f.Size() != 0 || f.Total() != 0 {
		t.Error("nil flight recorder not inert")
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record(RequestEvent{Time: time.Now(), Endpoint: "/v1/simulate"})
				if i%50 == 0 {
					f.Recent(10)
				}
			}
		}()
	}
	wg.Wait()
	if f.Total() != 4000 {
		t.Errorf("lost events: %d of 4000", f.Total())
	}
}
