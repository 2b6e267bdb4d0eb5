package progress

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"lme/internal/sim"
	"lme/internal/telemetry"
)

// fakeClock advances only when told, making intervals deterministic.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1000, 0)} }

func TestReporterIntervalGating(t *testing.T) {
	clock := newFakeClock()
	var out bytes.Buffer
	events := uint64(0)
	simNow := sim.Time(0)
	r := New(Config{Interval: time.Second, JSONL: &out, Clock: clock.Now}, Sources{
		Now:    func() sim.Time { return simNow },
		Events: func() uint64 { return events },
	})

	r.Tick() // 0ms since start: gated
	if out.Len() != 0 {
		t.Fatal("tick before interval emitted")
	}

	events, simNow = 5000, 2_000_000
	clock.Advance(time.Second)
	r.Tick()
	clock.Advance(200 * time.Millisecond)
	r.Tick() // gated again
	lines := strings.Count(out.String(), "\n")
	if lines != 1 {
		t.Fatalf("emitted %d records, want 1", lines)
	}

	var rec Record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Events != 5000 || rec.SimUS != 2_000_000 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.EventsPerSec != 5000 {
		t.Fatalf("events/sec = %v, want 5000 over the 1s interval", rec.EventsPerSec)
	}
	if rec.SimUSPerSec != 2e6 {
		t.Fatalf("sim rate = %v", rec.SimUSPerSec)
	}
	if rec.HeapBytes == 0 {
		t.Fatal("heap gauge not sampled")
	}
	if rec.Final {
		t.Fatal("heartbeat marked final")
	}

	events = 8000
	clock.Advance(300 * time.Millisecond)
	r.Final() // unconditional
	scan := bufio.NewScanner(bytes.NewReader(out.Bytes()))
	var last Record
	for scan.Scan() {
		last = Record{}
		if err := json.Unmarshal(scan.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if !last.Final || last.Events != 8000 {
		t.Fatalf("final record = %+v", last)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestReporterHumanLine(t *testing.T) {
	clock := newFakeClock()
	var human bytes.Buffer
	r := New(Config{Interval: time.Second, Human: &human, Label: "E1", Clock: clock.Now}, Sources{
		Events: func() uint64 { return 1_250_000 },
		Loss:   func() (uint64, uint64) { return 3, 0 },
		Jobs:   func() (int, int) { return 4, 10 },
	})
	clock.Advance(time.Second)
	r.Tick()
	line := human.String()
	for _, want := range []string{"progress E1", "jobs=4/10", "ev/s", "heap=", "loss=3/0"} {
		if !strings.Contains(line, want) {
			t.Errorf("human line %q missing %q", line, want)
		}
	}
	// The engine section shows the barrier's serial share.
	var he bytes.Buffer
	re := New(Config{Interval: time.Second, Human: &he, Clock: clock.Now}, Sources{
		Engine: func() *telemetry.EngineStats {
			return &telemetry.EngineStats{Schema: telemetry.Schema, Tiles: 4, Workers: 2, SerialShare: 0.42}
		},
	})
	clock.Advance(time.Second)
	re.Tick()
	for _, want := range []string{"tiles=4×4", "serial=42%"} {
		if !strings.Contains(he.String(), want) {
			t.Errorf("human line %q missing %q", he.String(), want)
		}
	}
	// Loss stays silent when zero.
	var h2 bytes.Buffer
	r2 := New(Config{Interval: time.Second, Human: &h2, Clock: clock.Now}, Sources{})
	clock.Advance(time.Second)
	r2.Tick()
	if strings.Contains(h2.String(), "loss=") {
		t.Errorf("zero loss rendered: %q", h2.String())
	}
}

// recordWire pins the lme/progress/v1 field set, mirroring the
// hand-pinned wire-struct pattern of internal/span/schema_test.go.
// Pointer-free: absent omitempty fields decode as zero.
type recordWire struct {
	Schema          string  `json:"schema"`
	Label           string  `json:"label"`
	WallMS          float64 `json:"wall_ms"`
	SimUS           int64   `json:"sim_us"`
	Events          uint64  `json:"events"`
	EventsPerSec    float64 `json:"events_per_sec"`
	SimUSPerSec     float64 `json:"sim_us_per_sec"`
	OpenSpans       int     `json:"open_spans"`
	HeapBytes       uint64  `json:"heap_bytes"`
	RingOverwritten uint64  `json:"ring_overwritten"`
	SinkDropped     uint64  `json:"sink_dropped"`
	JobsDone        int     `json:"jobs_done"`
	JobsTotal       int     `json:"jobs_total"`
	// Engine/Transport are the optional lme/telemetry/v1 sections; their
	// internal layout is pinned by internal/telemetry's own schema tests,
	// so the envelope only asserts presence here.
	Engine    json.RawMessage `json:"engine"`
	Transport json.RawMessage `json:"transport"`
	Final     bool            `json:"final"`
}

// TestProgressSchemaRoundTrip strict-decodes a fully-populated record
// against the pinned mirror and round-trips it for value equality.
func TestProgressSchemaRoundTrip(t *testing.T) {
	clock := newFakeClock()
	r := New(Config{Interval: time.Second, Label: "smoke", Clock: clock.Now}, Sources{
		Now:       func() sim.Time { return 7_000_000 },
		Events:    func() uint64 { return 123_456 },
		OpenSpans: func() int { return 9 },
		Loss:      func() (uint64, uint64) { return 11, 2 },
		Jobs:      func() (int, int) { return 5, 40 },
	})
	clock.Advance(1500 * time.Millisecond)
	rec := r.Sample(clock.Now(), true)
	if rec.Schema != Schema {
		t.Fatalf("schema = %q", rec.Schema)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}

	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var wire recordWire
	if err := dec.Decode(&wire); err != nil {
		t.Fatalf("schema drift: %v\nencoded: %s", err, data)
	}
	if wire.Schema != Schema || wire.SimUS != 7_000_000 || wire.Events != 123_456 ||
		wire.OpenSpans != 9 || wire.RingOverwritten != 11 || wire.SinkDropped != 2 ||
		wire.JobsDone != 5 || wire.JobsTotal != 40 || !wire.Final || wire.HeapBytes == 0 {
		t.Fatalf("mirror = %+v", wire)
	}

	var back Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != rec {
		t.Fatalf("round trip mutated the record:\n in  %+v\n out %+v", rec, back)
	}
}

// TestProgressTelemetrySections checks the reporter samples the optional
// engine/transport telemetry sources into the record, that the sections
// survive the wire strictly, and that records without them omit the keys
// entirely (old-reader compatibility).
func TestProgressTelemetrySections(t *testing.T) {
	clock := newFakeClock()
	eng := &telemetry.EngineStats{Schema: telemetry.Schema, Tiles: 4, Workers: 2, Windows: 17}
	ts := &telemetry.TransportStats{Schema: telemetry.Schema, Kind: "udp", Links: 6, ReorderOverflow: 2}
	r := New(Config{Interval: time.Second, Clock: clock.Now}, Sources{
		Events:    func() uint64 { return 10 },
		Engine:    func() *telemetry.EngineStats { return eng },
		Transport: func() *telemetry.TransportStats { return ts },
	})
	clock.Advance(time.Second)
	rec := r.Sample(clock.Now(), true)
	if rec.Engine == nil || rec.Engine.Tiles != 4 || rec.Engine.Windows != 17 {
		t.Fatalf("engine section not sampled: %+v", rec.Engine)
	}
	if rec.Transport == nil || rec.Transport.Kind != "udp" || rec.Transport.ReorderOverflow != 2 {
		t.Fatalf("transport section not sampled: %+v", rec.Transport)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var wire recordWire
	if err := dec.Decode(&wire); err != nil {
		t.Fatalf("schema drift: %v\nencoded: %s", err, data)
	}
	if wire.Engine == nil || wire.Transport == nil {
		t.Fatalf("telemetry sections missing on the wire: %s", data)
	}

	// Without sources the keys must be absent, not null: old readers see
	// a byte-identical lme/progress/v1 record.
	r2 := New(Config{Interval: time.Second, Clock: clock.Now}, Sources{})
	plain, err := json.Marshal(r2.Sample(clock.Now(), true))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"engine"`, `"transport"`} {
		if bytes.Contains(plain, []byte(key)) {
			t.Errorf("record without telemetry carries %s: %s", key, plain)
		}
	}
}
