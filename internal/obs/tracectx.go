package obs

// Wire-propagated request tracing: a TraceContext is the pair of ids
// that ties one logical request together across processes. The client
// side of the recovery plane mints a root context per fetch and stamps
// it onto outgoing HTTP requests as additive headers; the server opens
// a child context under the caller's ids, so its serve spans carry the
// same trace id as the client's fetch span and a stitched multi-pid
// trace (see WireTrace) shows the full causal chain. The headers are
// additive: old peers ignore them (DESIGN.md §12).

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
)

// Trace-context propagation headers. They are additive: a server that
// predates them serves the request exactly as before, and a client
// that never sends them gets untraced handling.
const (
	// TraceIDHeader carries the 16-hex-digit trace id shared by every
	// span of one logical request, across processes.
	TraceIDHeader = "Kondo-Trace-Id"
	// SpanIDHeader carries the sender's span id; the receiver records
	// it as the parent of its own child span.
	SpanIDHeader = "Kondo-Span-Id"
)

// TraceContext identifies one request within a distributed trace: the
// trace id names the end-to-end request, the span id the current hop.
// The zero value is "no context".
type TraceContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether both ids are present.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" && tc.SpanID != "" }

// traceCtxKey carries a TraceContext through a context.Context.
type traceCtxKey struct{}

// WithTraceContext returns a context carrying tc. An invalid tc
// returns ctx unchanged.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceContextOf returns the trace context carried by ctx, if any.
func TraceContextOf(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}

// idEntropy seeds span-id generation once per process. Span ids only
// need uniqueness within a trace's lifetime, so a random 32-bit prefix
// plus a process-local counter is cheap and collision-safe enough;
// trace ids (the cross-process names) use 64 fresh random bits each.
var (
	idInit    sync.Once
	idPrefix  uint32
	idCounter atomic.Uint64
)

func initIDs() {
	var b [4]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint32(b[:], rand.Uint32())
	}
	idPrefix = binary.LittleEndian.Uint32(b[:])
}

// NewTraceID returns a fresh random 16-hex-digit trace id.
func NewTraceID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint64(b[:], rand.Uint64())
	}
	return hex.EncodeToString(b[:])
}

// newSpanID returns a process-unique span id.
func newSpanID() string {
	idInit.Do(initIDs)
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], idPrefix)
	binary.BigEndian.PutUint32(b[4:], uint32(idCounter.Add(1)))
	return hex.EncodeToString(b[:])
}

// NewTraceContext mints a root context: fresh trace id, fresh span id.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: NewTraceID(), SpanID: newSpanID()}
}

// Child derives the next hop's context: same trace id, fresh span id.
// The parent's span id is what the caller stamps on the wire (the
// receiver records it as parent_span_id).
func (tc TraceContext) Child() TraceContext {
	if !tc.Valid() {
		return NewTraceContext()
	}
	return TraceContext{TraceID: tc.TraceID, SpanID: newSpanID()}
}

// EnsureTraceContext returns ctx carrying a trace context plus that
// context. An existing context is kept; otherwise a root is minted —
// but only when ctx actually records spans (carries a Trace), so the
// tracing-off path stays allocation-free. The second return reports
// whether a context is present.
func EnsureTraceContext(ctx context.Context) (context.Context, TraceContext, bool) {
	if tc, ok := TraceContextOf(ctx); ok {
		return ctx, tc, true
	}
	if TraceOf(ctx) == nil {
		return ctx, TraceContext{}, false
	}
	tc := NewTraceContext()
	return WithTraceContext(ctx, tc), tc, true
}

// Inject stamps the context onto outgoing HTTP headers. Invalid
// contexts stamp nothing.
func (tc TraceContext) Inject(h http.Header) {
	if !tc.Valid() {
		return
	}
	h.Set(TraceIDHeader, tc.TraceID)
	h.Set(SpanIDHeader, tc.SpanID)
}

// ExtractTraceContext reads a propagated context from incoming HTTP
// headers. Requests from peers that predate the headers return ok
// false.
func ExtractTraceContext(h http.Header) (TraceContext, bool) {
	tc := TraceContext{TraceID: h.Get(TraceIDHeader), SpanID: h.Get(SpanIDHeader)}
	return tc, tc.Valid()
}
