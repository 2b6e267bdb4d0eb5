// Package progress emits live run telemetry: a heartbeat that samples
// the run's vital signs — events/sec, sim-time rate, open spans, heap
// bytes, trace-loss counters — on a wall-clock interval and writes a
// human one-liner and/or a machine-readable JSONL stream (schema
// lme/progress/v1). Nothing here touches virtual time: a multi-minute
// 100k-node run reports the same numbers whether or not anyone watches,
// and the per-tick cost is one ReadMemStats plus a few atomic loads.
//
// The Reporter is driven by its owner (the harness ticks it at
// slice boundaries; lmebench ticks it from a wall-clock ticker
// goroutine) and is single-goroutine: whoever ticks it owns it.
package progress

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"lme/internal/sim"
	"lme/internal/telemetry"
)

// Schema identifies the JSONL record layout; bump on breaking changes.
const Schema = "lme/progress/v1"

// Record is one heartbeat sample (one JSONL line). Rates are measured
// over the interval since the previous record.
type Record struct {
	Schema string `json:"schema"`
	// Label names the run or experiment being reported, when the owner
	// set one.
	Label string `json:"label,omitempty"`
	// WallMS is wall-clock time since the reporter started.
	WallMS float64 `json:"wall_ms"`
	// SimUS is the current virtual time (0 when the source is absent,
	// e.g. fleet-level reporting).
	SimUS int64 `json:"sim_us"`
	// Events is the cumulative scheduler event count.
	Events uint64 `json:"events"`
	// EventsPerSec and SimUSPerSec are rates over the last interval:
	// scheduler events per wall second, and virtual µs advanced per wall
	// second (SimUSPerSec/1e6 = real-time speedup factor).
	EventsPerSec float64 `json:"events_per_sec"`
	SimUSPerSec  float64 `json:"sim_us_per_sec"`
	// OpenSpans is the number of CS attempts currently in progress.
	OpenSpans int `json:"open_spans"`
	// HeapBytes is runtime.MemStats.HeapAlloc at sample time.
	HeapBytes uint64 `json:"heap_bytes"`
	// RingOverwritten/SinkDropped are the trace-loss counters: events
	// overwritten in the flight-recorder ring and events dropped by a
	// saturated sink.
	RingOverwritten uint64 `json:"ring_overwritten"`
	SinkDropped     uint64 `json:"sink_dropped"`
	// JobsDone/JobsTotal report fleet progress when the owner supplies a
	// jobs source (JobsTotal may be 0 when unknown).
	JobsDone  int `json:"jobs_done,omitempty"`
	JobsTotal int `json:"jobs_total,omitempty"`
	// Engine and Transport are the optional lme/telemetry/v1 sections:
	// the sharded engine's per-tile/window counters and a live
	// transport's wire counters. Absent (nil) when the run collects no
	// telemetry — old lme/progress/v1 records simply lack the keys, and
	// readers must tolerate that.
	Engine    *telemetry.EngineStats    `json:"engine,omitempty"`
	Transport *telemetry.TransportStats `json:"transport,omitempty"`
	// Final marks the closing record emitted after the run completes.
	Final bool `json:"final,omitempty"`
}

// Sources are the gauges the reporter samples. Every field is optional;
// a nil source reads as zero.
type Sources struct {
	// Now reports current virtual time.
	Now func() sim.Time
	// Events reports the cumulative scheduler event count.
	Events func() uint64
	// OpenSpans reports the number of open CS attempts.
	OpenSpans func() int
	// Loss reports the cumulative trace-loss counters
	// (ring-overwritten, sink-dropped).
	Loss func() (overwritten, dropped uint64)
	// Jobs reports fleet progress (done, total); total 0 = unknown.
	Jobs func() (done, total int)
	// Engine snapshots the execution engine's telemetry (nil result =
	// section omitted). Sampled at tick time, on the ticking goroutine —
	// the source must be safe to call there.
	Engine func() *telemetry.EngineStats
	// Transport snapshots a live transport's wire telemetry (nil result
	// = section omitted).
	Transport func() *telemetry.TransportStats
}

// Config configures a Reporter.
type Config struct {
	// Interval is the minimum wall-clock spacing between heartbeats
	// (default 2s).
	Interval time.Duration
	// Human receives the one-line rendering of each record (typically
	// os.Stderr); nil disables it.
	Human io.Writer
	// JSONL receives one lme/progress/v1 record per line; nil disables.
	JSONL io.Writer
	// Label names the run in every record.
	Label string
	// Clock overrides time.Now, for tests.
	Clock func() time.Time
}

// Reporter samples the sources on demand, rate-limited by the interval.
type Reporter struct {
	cfg Config
	src Sources

	start    time.Time
	lastEmit time.Time
	lastEv   uint64
	lastSim  sim.Time

	err error
}

// New creates a reporter; the interval clock starts immediately.
func New(cfg Config, src Sources) *Reporter {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	r := &Reporter{cfg: cfg, src: src}
	r.start = cfg.Clock()
	r.lastEmit = r.start
	return r
}

// Tick emits a heartbeat if at least Interval has passed since the last
// one; otherwise it returns immediately (two time loads and a compare —
// cheap enough for a hot loop's slice boundary).
func (r *Reporter) Tick() {
	now := r.cfg.Clock()
	if now.Sub(r.lastEmit) < r.cfg.Interval {
		return
	}
	r.emit(now, false)
}

// Final emits the closing record unconditionally.
func (r *Reporter) Final() { r.emit(r.cfg.Clock(), true) }

// Err reports the first write error, if any (heartbeats are best-effort;
// a broken pipe stops hurting but is still visible here).
func (r *Reporter) Err() error { return r.err }

// Sample assembles a Record from the sources without emitting it.
func (r *Reporter) Sample(now time.Time, final bool) Record {
	rec := Record{Schema: Schema, Label: r.cfg.Label, Final: final}
	rec.WallMS = float64(now.Sub(r.start)) / float64(time.Millisecond)
	if r.src.Now != nil {
		rec.SimUS = int64(r.src.Now())
	}
	if r.src.Events != nil {
		rec.Events = r.src.Events()
	}
	if dt := now.Sub(r.lastEmit).Seconds(); dt > 0 {
		rec.EventsPerSec = float64(rec.Events-r.lastEv) / dt
		rec.SimUSPerSec = float64(sim.Time(rec.SimUS)-r.lastSim) / dt
	}
	if r.src.OpenSpans != nil {
		rec.OpenSpans = r.src.OpenSpans()
	}
	if r.src.Loss != nil {
		rec.RingOverwritten, rec.SinkDropped = r.src.Loss()
	}
	if r.src.Jobs != nil {
		rec.JobsDone, rec.JobsTotal = r.src.Jobs()
	}
	if r.src.Engine != nil {
		rec.Engine = r.src.Engine()
	}
	if r.src.Transport != nil {
		rec.Transport = r.src.Transport()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec.HeapBytes = ms.HeapAlloc
	return rec
}

func (r *Reporter) emit(now time.Time, final bool) {
	rec := r.Sample(now, final)
	r.lastEmit = now
	r.lastEv = rec.Events
	r.lastSim = sim.Time(rec.SimUS)
	if w := r.cfg.Human; w != nil {
		if _, err := fmt.Fprintln(w, rec.HumanLine()); err != nil && r.err == nil {
			r.err = err
		}
	}
	if w := r.cfg.JSONL; w != nil {
		data, err := json.Marshal(rec)
		if err == nil {
			data = append(data, '\n')
			_, err = w.Write(data)
		}
		if err != nil && r.err == nil {
			r.err = err
		}
	}
}

// HumanLine renders the record as the stderr one-liner.
func (r Record) HumanLine() string {
	var b []byte
	b = append(b, "progress"...)
	if r.Label != "" {
		b = append(b, ' ')
		b = append(b, r.Label...)
	}
	if r.Final {
		b = append(b, " done"...)
	}
	b = fmt.Appendf(b, " wall=%.1fs", r.WallMS/1000)
	if r.SimUS > 0 {
		b = fmt.Appendf(b, " sim=%.2fs", float64(r.SimUS)/1e6)
	}
	if r.JobsTotal > 0 {
		b = fmt.Appendf(b, " jobs=%d/%d", r.JobsDone, r.JobsTotal)
	} else if r.JobsDone > 0 {
		b = fmt.Appendf(b, " jobs=%d", r.JobsDone)
	}
	b = fmt.Appendf(b, " %s ev/s", siCount(r.EventsPerSec))
	if r.SimUSPerSec > 0 {
		b = fmt.Appendf(b, " (×%.1f real time)", r.SimUSPerSec/1e6)
	}
	b = fmt.Appendf(b, " open=%d heap=%s", r.OpenSpans, siBytes(r.HeapBytes))
	if r.RingOverwritten > 0 || r.SinkDropped > 0 {
		b = fmt.Appendf(b, " loss=%d/%d", r.RingOverwritten, r.SinkDropped)
	}
	if e := r.Engine; e != nil && e.Tiles > 1 {
		b = fmt.Appendf(b, " tiles=%d×%d", e.Tiles, e.Tiles)
		if e.Imbalance > 0 {
			b = fmt.Appendf(b, " imb=%.2f", e.Imbalance)
		}
		if e.StealAttempts > 0 {
			b = fmt.Appendf(b, " steals=%d/%d", e.StealHits, e.StealAttempts)
		}
		if e.SerialShare > 0 {
			b = fmt.Appendf(b, " serial=%.0f%%", 100*e.SerialShare)
		}
	}
	if ts := r.Transport; ts != nil {
		b = fmt.Appendf(b, " wire=%s/%d/%d", ts.Kind, ts.FramesSent, ts.FramesDelivered)
		if ts.Retransmits > 0 || ts.ReorderOverflow > 0 {
			b = fmt.Appendf(b, " retx=%d ovfl=%d", ts.Retransmits, ts.ReorderOverflow)
		}
	}
	return string(b)
}

// siCount renders a rate with a binary-free SI suffix ("1.25M").
func siCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// siBytes renders a byte count ("12.4MB").
func siBytes(v uint64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fkB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}
