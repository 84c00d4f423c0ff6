package trace

import (
	"encoding/hex"
	"strings"
)

// Header is the W3C trace-context header name carried on every gcassertd
// request and response. Header names are case-insensitive; this one is
// spelled in Go's canonical form so http.Header's Get and Set use it as is
// instead of allocating a canonicalised copy on every request.
const Header = "Traceparent"

// SpanContext is a propagated trace position: which trace, which span is
// the current parent, and whether the upstream chose to sample.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// traceparentLen is the length of a version-00 traceparent.
const traceparentLen = len("00-") + 32 + len("-") + 16 + len("-00")

// IsValid reports whether both IDs are non-zero.
func (sc SpanContext) IsValid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the context in W3C form:
// "00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>". The trace ID is
// bytes [3, 35) of the result.
func (sc SpanContext) Traceparent() string {
	var b [traceparentLen]byte
	copy(b[:], "00-")
	hex.Encode(b[3:35], sc.TraceID[:])
	b[35] = '-'
	hex.Encode(b[36:52], sc.SpanID[:])
	copy(b[52:], "-00")
	if sc.Sampled {
		b[54] = '1'
	}
	return string(b[:])
}

// ParseTraceparent parses a W3C traceparent header. It accepts any
// non-"ff" version (per spec, future versions must stay parseable as
// version 00 up to their extra fields) and rejects malformed or all-zero
// IDs. ok=false means "no usable upstream context" — never an error the
// request should fail on.
func ParseTraceparent(h string) (sc SpanContext, ok bool) {
	// "vv-<32>-<16>-ff": every field has a fixed width, so a valid header
	// has its dashes at fixed offsets, and only a future version may go on,
	// with a dash, past the flags.
	h = strings.TrimSpace(h)
	if len(h) < traceparentLen || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	ver, tid, sid, flags := h[:2], h[3:35], h[36:52], h[53:55]
	if ver == "ff" || !isHex(ver) {
		return SpanContext{}, false
	}
	if len(h) > traceparentLen && (ver == "00" || h[traceparentLen] != '-') {
		return SpanContext{}, false
	}
	// The wire format is lowercase hex only (hex.Decode would also accept
	// uppercase, which the W3C spec forbids).
	if !isHex(tid) || !isHex(sid) {
		return SpanContext{}, false
	}
	t, err := ParseTraceID(tid)
	if err != nil {
		return SpanContext{}, false
	}
	s, err := ParseSpanID(sid)
	if err != nil {
		return SpanContext{}, false
	}
	if !isHex(flags) {
		return SpanContext{}, false
	}
	sc = SpanContext{TraceID: t, SpanID: s, Sampled: flags[1]&1 == 1}
	return sc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
		default:
			return false
		}
	}
	return true
}
