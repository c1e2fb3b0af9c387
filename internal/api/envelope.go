package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Both tiers write every response through these helpers, so a client
// cannot tell a coordinator from a single divmaxd by its bytes.

// WriteJSON writes v as the response body. An encode failure almost
// always means the client hung up mid-response; the status line is
// already out, so the response cannot be salvaged and the error goes to
// onErr instead of being dropped.
func WriteJSON(w http.ResponseWriter, v any, onErr func(error)) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		onErr(err)
	}
}

// WriteError writes the uniform error envelope, {"error":{"code",
// "message"}}, with the code mapped 1:1 from status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	var env ErrorEnvelope
	env.Error.Code = errorCode(status)
	env.Error.Message = fmt.Sprintf(format, args...)
	json.NewEncoder(w).Encode(env)
}

func errorCode(status int) string {
	switch status {
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusRequestEntityTooLarge:
		return CodePayloadTooLarge
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	case http.StatusGatewayTimeout:
		return CodeDeadlineExceeded
	case http.StatusTooManyRequests:
		return CodeOverloaded
	default:
		return CodeBadRequest
	}
}

// RequestContext derives r's context bounded by d; d <= 0 leaves the
// request unbounded, though the client hanging up still cancels it. The
// caller defers cancel.
func RequestContext(r *http.Request, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}
