// Package logx is the serving plane's structured logger: leveled,
// logfmt-style key=value lines, one allocation-light call per event. It
// replaces the ad-hoc log.Printf lines in hybridnetd and hybridnet-router
// so every request-outcome line is machine-parseable and carries the
// request's trace ID as a field instead of prose.
//
//	ts=2026-08-08T10:01:02.345Z level=info msg=request trace=ab12cd34-0007 status=200 lat_ms=4.2
//
// A nil *Logger is a valid no-op sink (every method on it is safe), so
// library code can log unconditionally and let the caller decide whether
// anything is wired up.
package logx

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities. Events below the logger's level are dropped
// before any formatting work happens.
type Level int8

const (
	Debug Level = iota - 1
	Info
	Warn
	Error
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel maps a flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return Debug, nil
	case "info", "":
		return Info, nil
	case "warn", "warning":
		return Warn, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("logx: unknown level %q (debug|info|warn|error)", s)
}

// Logger emits logfmt lines to a writer. Safe for concurrent use; each
// event is written with a single Write call so lines from concurrent
// goroutines never interleave mid-line.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level Level
	base  string // pre-rendered "k=v k=v" suffix from With
	now   func() time.Time
}

// New builds a Logger writing events at or above level to w.
func New(w io.Writer, level Level) *Logger {
	return &Logger{w: w, level: level, now: time.Now}
}

// Default is a process-wide Info-level logger on stderr.
var defaultLogger = New(os.Stderr, Info)

// Default returns the shared stderr Info logger.
func Default() *Logger { return defaultLogger }

// With returns a logger that appends the given key/value pairs to every
// event. The pairs are rendered once, so With is cheap to use per
// subsystem ("component", "router") but not meant for per-event state.
func (l *Logger) With(kvs ...any) *Logger {
	if l == nil {
		return nil
	}
	var b strings.Builder
	appendKVs(&b, kvs)
	l.mu.Lock()
	defer l.mu.Unlock()
	return &Logger{w: l.w, level: l.level, base: l.base + b.String(), now: l.now}
}

// Enabled reports whether events at level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// Debug logs a debug-level event.
func (l *Logger) Debug(msg string, kvs ...any) { l.log(Debug, msg, kvs) }

// Info logs an info-level event.
func (l *Logger) Info(msg string, kvs ...any) { l.log(Info, msg, kvs) }

// Warn logs a warn-level event.
func (l *Logger) Warn(msg string, kvs ...any) { l.log(Warn, msg, kvs) }

// Error logs an error-level event.
func (l *Logger) Error(msg string, kvs ...any) { l.log(Error, msg, kvs) }

// Logf serves printf-style call sites (the router's event lines): the
// formatted message becomes the msg field of one info-level event.
func (l *Logger) Logf(format string, args ...any) {
	l.log(Info, fmt.Sprintf(format, args...), nil)
}

func (l *Logger) log(level Level, msg string, kvs []any) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.Grow(64 + len(msg) + len(l.base) + 16*len(kvs))
	b.WriteString("ts=")
	b.WriteString(l.now().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(quote(msg))
	b.WriteString(l.base)
	appendKVs(&b, kvs)
	b.WriteByte('\n')
	l.mu.Lock()
	io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// appendKVs renders " k=v" pairs. A trailing odd value is kept under the
// key "!badkey" rather than dropped, so a malformed call site is visible
// in the output instead of silently losing data.
func appendKVs(b *strings.Builder, kvs []any) {
	for i := 0; i+1 < len(kvs); i += 2 {
		b.WriteByte(' ')
		key, ok := kvs[i].(string)
		if !ok {
			key = fmt.Sprint(kvs[i])
		}
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(quote(value(kvs[i+1])))
	}
	if len(kvs)%2 == 1 {
		b.WriteString(" !badkey=")
		b.WriteString(quote(value(kvs[len(kvs)-1])))
	}
}

// value renders one logfmt value without reflection for the common types.
func value(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case time.Duration:
		return x.String()
	case error:
		return x.Error()
	case nil:
		return "<nil>"
	default:
		return fmt.Sprint(v)
	}
}

// quote wraps values containing logfmt-breaking characters in Go quotes.
func quote(s string) string {
	if s == "" {
		return `""`
	}
	if strings.ContainsAny(s, " \t\n\"=") {
		return strconv.Quote(s)
	}
	return s
}
