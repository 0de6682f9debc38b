package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
)

// Trace IDs give every request a stable identity that survives the trip
// through the daemon: minted (or accepted from the client's
// X-Request-Id) at the HTTP boundary, held by the request's Tracer,
// which travels via context.Context through the pool, retry, cache,
// store and sweep machinery (TracerFromContext(ctx).TraceID()), and
// stamped into structured log lines, flight-recorder events, trace
// spans and run manifests. Correlating one slow sweep across all of
// those surfaces is a grep for one string.

// traceIDSeq breaks ties if the random source ever fails: the fallback
// ID is still unique within the process.
var traceIDSeq atomic.Uint64

// NewTraceID mints a 16-hex-character random trace ID. It never fails:
// if the system random source is unavailable it falls back to a
// process-unique counter.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := traceIDSeq.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// maxTraceIDLen bounds client-supplied IDs so a hostile header cannot
// bloat every log line and flight-recorder slot it is copied into.
const maxTraceIDLen = 64

// SanitizeTraceID validates a client-supplied trace ID (an inbound
// X-Request-Id header): printable ASCII without spaces, quotes or
// backslashes, at most 64 characters. Anything else returns "" and the
// caller mints a fresh ID instead.
func SanitizeTraceID(s string) string {
	if len(s) == 0 || len(s) > maxTraceIDLen {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return ""
		}
	}
	return s
}
