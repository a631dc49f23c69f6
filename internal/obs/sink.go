package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
)

// TraceSink is where a daemon's finished request traces go: each is filed
// with the process's flight recorder and reported as one structured outcome
// line — errors (status ≥ 400) at warn, so every 4xx/5xx leaves a line
// carrying its trace ID, everything else at debug, and a deterministic
// 1-in-N of all requests promoted to info with the full span breakdown, so
// a given sample rate yields a predictable log volume (no per-request
// randomness). A nil *TraceSink drops everything; a nil logger keeps the
// recorder and drops the lines.
type TraceSink struct {
	rec   *Recorder
	log   *slog.Logger
	msg   string
	every uint64 // promote 1-in-every outcome lines to info; 0 = never
	n     atomic.Uint64
}

// NewTraceSink builds a sink logging to log under the message msg
// ("request" at the worker, "proxy" at the router), keeping depth recent
// and depth slowest traces (≤ 0 = DefaultRecorderDepth) and promoting the
// given fraction of outcome lines (0 = none, ≥ 1 = all).
func NewTraceSink(log *slog.Logger, msg string, depth int, sample float64) *TraceSink {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	t := &TraceSink{rec: NewRecorder(depth), log: log, msg: msg}
	if sample > 0 {
		if sample > 1 {
			sample = 1
		}
		t.every = uint64(1 / sample)
	}
	return t
}

// Finish files one completed request. errMsg, when non-empty, and the
// caller's extra key/value pairs (batch size, shard id, …) join the trace
// ID, status and total on the outcome line.
func (t *TraceSink) Finish(rec TraceRecord, errMsg string, kvs ...any) {
	if t == nil {
		return
	}
	t.rec.Record(rec)
	sampled := t.every > 0 && t.n.Add(1)%t.every == 0
	level := slog.LevelDebug
	switch {
	case rec.Status >= 400:
		level = slog.LevelWarn
	case sampled:
		level = slog.LevelInfo
	}
	ctx := context.Background()
	if !t.log.Enabled(ctx, level) {
		return
	}
	line := append([]any{
		"trace", rec.ID, "status", rec.Status,
		"total_ms", float64(rec.Total.Microseconds()) / 1000,
	}, kvs...)
	if errMsg != "" {
		line = append(line, "err", errMsg)
	}
	if sampled && len(rec.Spans) > 0 {
		line = append(line, "spans", FormatSpans(rec.Spans))
	}
	t.log.Log(ctx, level, t.msg, line...)
}

// Snapshot dumps the sink's flight recorder (the GET /debug/requests body
// of one process).
func (t *TraceSink) Snapshot() RecorderDump {
	if t == nil {
		return RecorderDump{}
	}
	return t.rec.Snapshot()
}
