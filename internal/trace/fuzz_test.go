package trace

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds arbitrary header values to the parser, which
// reads bytes from outside the process on every gcassertd request. It must
// agree with splitParse, the field-splitting parser it replaced, and
// whatever it accepts must be a valid context that renders and parses back
// to itself. The same input's bytes also make a context of their own, so
// the renderer is checked on every context, not only on parsed ones: its
// output must equal the fmt form it replaced and parse back to the context.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range []string{
		// The W3C Trace Context examples.
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		// What the parser must refuse or tolerate.
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-09-what-the-future-will-be",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01\t",
		"",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if rsc, rok := splitParse(h); sc != rsc || ok != rok {
			t.Fatalf("ParseTraceparent(%q) = %+v, %v; the field-splitting parser says %+v, %v", h, sc, ok, rsc, rok)
		}
		if ok {
			if !sc.IsValid() {
				t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", h, sc)
			}
			checkRender(t, sc)
		}
		var raw SpanContext
		n := copy(raw.TraceID[:], h)
		copy(raw.SpanID[:], h[n:])
		raw.Sampled = len(h)%2 == 1
		if raw.IsValid() {
			checkRender(t, raw)
		}
	})
}

// splitParse is the reference parser: split on dashes, then check each
// field.
func splitParse(h string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 {
		return SpanContext{}, false
	}
	ver, tid, sid, flags := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 || ver == "ff" || !isHex(ver) || ver == "00" && len(parts) != 4 {
		return SpanContext{}, false
	}
	if !isHex(tid) || !isHex(sid) || len(flags) != 2 || !isHex(flags) {
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
	return SpanContext{TraceID: t, SpanID: s, Sampled: flags[1]&1 == 1}, true
}

// checkRender holds Traceparent to the fmt form and to the parser.
func checkRender(t *testing.T, sc SpanContext) {
	t.Helper()
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	tp := sc.Traceparent()
	if want := fmt.Sprintf("00-%s-%s-%s", sc.TraceID, sc.SpanID, flags); tp != want {
		t.Fatalf("Traceparent() = %q, want %q", tp, want)
	}
	if back, ok := ParseTraceparent(tp); !ok || back != sc {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v; want %+v", tp, back, ok, sc)
	}
}
