package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync/atomic"
)

// Trace identity gives span events request correlation. A TraceID names one
// logical operation (an HTTP request, a benchmark solve); SpanIDs name the
// nested phases inside it. Identity travels in a context.Context value, so
// the solver packages stay free of any tracing dependency: they call
// Timer.StartCtx and the identity threads itself.
//
// The wire format at HTTP boundaries is W3C traceparent
// (https://www.w3.org/TR/trace-context/):
//
//	traceparent: 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>
//
// Only version 00 is parsed; unknown versions and malformed headers are
// ignored (a fresh trace is started instead), per the spec's lenient mode.

// TraceID is a 16-byte trace identifier; the zero value means "no trace".
type TraceID [16]byte

// SpanID is an 8-byte span identifier; the zero value means "no span".
type SpanID [8]byte

// IsValid reports whether the id is non-zero.
func (t TraceID) IsValid() bool { return t != TraceID{} }

// String renders the id as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsValid reports whether the id is non-zero.
func (s SpanID) IsValid() bool { return s != SpanID{} }

// String renders the id as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID decodes 32 hex characters; errors on bad length/characters or
// the all-zero id (invalid per the W3C spec).
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, errors.New("obs: trace id must be 32 hex chars")
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, err
	}
	if !t.IsValid() {
		return TraceID{}, errors.New("obs: all-zero trace id")
	}
	return t, nil
}

// SpanContext is the identity of one span: which trace it belongs to and its
// own id. The zero value is "not sampled / no trace".
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// IsValid reports whether both ids are set.
func (sc SpanContext) IsValid() bool { return sc.Trace.IsValid() && sc.Span.IsValid() }

// Traceparent renders the context as a W3C traceparent header value with the
// sampled flag set. Empty string when the context is invalid.
func (sc SpanContext) Traceparent() string {
	if !sc.IsValid() {
		return ""
	}
	buf := make([]byte, 0, 55)
	buf = append(buf, "00-"...)
	buf = appendHex(buf, sc.Trace[:])
	buf = append(buf, '-')
	buf = appendHex(buf, sc.Span[:])
	buf = append(buf, "-01"...)
	return string(buf)
}

func appendHex(dst, src []byte) []byte {
	const digits = "0123456789abcdef"
	for _, b := range src {
		dst = append(dst, digits[b>>4], digits[b&0x0f])
	}
	return dst
}

// ParseTraceparent decodes a W3C traceparent header value. It accepts only
// version 00 whose trace id, parent id and flags are lowercase hex (the
// spec's HEXDIGLC; any other header is invalid and must be ignored), and
// rejects all-zero ids. The flags' value is ignored (this process records
// every solve it runs regardless of upstream sampling).
func ParseTraceparent(h string) (SpanContext, error) {
	var sc SpanContext
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return sc, errors.New("obs: malformed traceparent")
	}
	if h[0] != '0' || h[1] != '0' {
		return sc, errors.New("obs: unsupported traceparent version")
	}
	if len(h) != 55 {
		return sc, errors.New("obs: malformed traceparent") // version 00 is exactly 55 chars
	}
	if !lowerHex(h[3:35]) || !lowerHex(h[36:52]) || !lowerHex(h[53:]) {
		return sc, errors.New("obs: traceparent fields must be lowercase hex")
	}
	t, err := ParseTraceID(h[3:35])
	if err != nil {
		return sc, err
	}
	var sp SpanID
	if _, err := hex.Decode(sp[:], []byte(h[36:52])); err != nil {
		return sc, err
	}
	if !sp.IsValid() {
		return sc, errors.New("obs: all-zero parent id")
	}
	return SpanContext{Trace: t, Span: sp}, nil
}

// lowerHex reports whether s consists of lowercase hex digits only.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// idGen is a lock-free unique-id source: a process-random base perturbed by
// an atomic counter pushed through splitmix64, so ids are unique within the
// process and unpredictable across processes without taking a lock or
// touching crypto/rand per span.
var idGen struct {
	base uint64
	ctr  atomic.Uint64
}

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idGen.base = binary.LittleEndian.Uint64(b[:])
	} else {
		idGen.base = 0x9e3779b97f4a7c15 // still unique in-process via ctr
	}
}

// nextID returns a non-zero 64-bit id.
func nextID() uint64 {
	for {
		x := idGen.base + idGen.ctr.Add(1)*0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// NewTraceID returns a fresh random-looking trace id.
func NewTraceID() TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[0:8], nextID())
	binary.BigEndian.PutUint64(t[8:16], nextID())
	return t
}

// NewSpanID returns a fresh span id.
func NewSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], nextID())
	return s
}

// spanCtxKey keys the SpanContext value in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sc as the current span identity.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFrom extracts the current span identity; the zero SpanContext
// when none is attached.
func SpanContextFrom(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// childSpan derives the identity for a new span under ctx: same trace with a
// fresh span id when a parent exists, a brand-new trace otherwise. The
// parent's span id is returned for the parent_id event field.
func childSpan(ctx context.Context) (sc SpanContext, parent SpanID) {
	cur := SpanContextFrom(ctx)
	if cur.IsValid() {
		return SpanContext{Trace: cur.Trace, Span: NewSpanID()}, cur.Span
	}
	return SpanContext{Trace: NewTraceID(), Span: NewSpanID()}, SpanID{}
}
