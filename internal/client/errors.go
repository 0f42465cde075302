package client

import (
	"errors"
	"fmt"
	"net/http"

	"pathslice/internal/service"
)

// Error kinds. Server-raised kinds are the ErrorResponse.Error strings
// verbatim (service/api.go); the client adds kinds for failures that
// never reached a typed server answer.
const (
	// KindNetwork: the exchange failed below HTTP — dial error,
	// connection reset, stall past the context deadline, truncated
	// body. Retryable.
	KindNetwork = "network"
	// KindChecksum: the response body does not match its
	// X-Checksum-SHA256 header — bytes were corrupted in transit.
	// Retryable (a re-send takes a fresh path through the fault).
	KindChecksum = "checksum"
	// KindDecode: the body is undecodable as its wire type (strict
	// decoding), with no checksum header to blame first — also
	// transport damage. Retryable.
	KindDecode = "decode"
	// KindVersionSkew: a 200 whose body matched its X-Checksum-SHA256
	// but does not strict-decode as the client's wire type, so the
	// daemon sent it as it arrived: it speaks a different API version
	// (say, a response field this client lacks). Not retryable — every
	// retry would re-run the request on the daemon and fail the same
	// way.
	KindVersionSkew = "version_skew"
	// KindInternal: a client-side failure (request encoding). Not
	// retryable — retrying re-runs the same bug.
	KindInternal = "internal"

	// Server-raised kinds, re-exported for matching convenience.
	KindOverloaded   = "overloaded"
	KindDraining     = "draining"
	KindUnauthorized = "unauthorized"
	KindIntegrity    = "integrity"
)

// Error is the typed failure of one logical API call: either the
// server's ErrorResponse lifted off the wire, or a client-side kind
// for failures beneath the protocol. It mirrors the shared exit-code
// contract (docs/ROBUSTNESS.md): Exit() maps any failure to the same
// codes the CLIs use, and shed/drain errors carry the server's
// "undecided" verdict — a sound refusal, never a wrong answer.
type Error struct {
	// Kind is the stable machine-readable failure class: a Kind*
	// constant or a server ErrorResponse.Error string.
	Kind string
	// Status is the HTTP status (0 when nothing was received).
	Status int
	// Message is human-readable detail.
	Message string
	// Verdict, ExitCode, Degraded and RetryAfterMS carry the typed
	// 503 body of sheds and drains (docs/API.md).
	Verdict      string
	ExitCode     int
	Degraded     bool
	RetryAfterMS int
	// RequestID correlates the failure with server-side JSONL traces.
	RequestID string

	// body retains undecodable payloads for salvage (Health re-decodes
	// a draining 503).
	body []byte
}

func (e *Error) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("slicerd: %s (HTTP %d): %s", e.Kind, e.Status, e.Message)
	}
	return fmt.Sprintf("slicerd: %s: %s", e.Kind, e.Message)
}

// Retryable reports whether another attempt can succeed: transport
// faults, corruption, load sheds, drains, and server 5xx. Permanent
// kinds — malformed requests, invalid programs, bad credentials, a
// daemon of another API version — would fail identically forever.
func (e *Error) Retryable() bool {
	switch e.Kind {
	case KindNetwork, KindChecksum, KindDecode, KindOverloaded, KindDraining, KindIntegrity:
		return true
	case KindVersionSkew:
		return false
	case KindInternal:
		// Server-side "internal" (a 500) is worth a retry; the
		// client-side encoding failure (Status 0) is not.
		return e.Status >= http.StatusInternalServerError
	}
	return e.Status >= http.StatusInternalServerError
}

// Exit maps the failure to the shared CLI exit codes: the server's
// code when the body carried one (sheds and drains say 4 "undecided"),
// 2 for caller mistakes, 1 for everything infrastructural.
func (e *Error) Exit() int {
	if e.ExitCode != 0 {
		return e.ExitCode
	}
	switch e.Kind {
	case "bad_request", "too_large", "method_not_allowed", KindUnauthorized:
		return service.ExitUsage
	case "invalid_program", "invalid_trace":
		return service.ExitUsage
	}
	return service.ExitInternal
}

// AsError unwraps err into *Error (errors.As with the right target).
func AsError(err error, target **Error) bool { return errors.As(err, target) }

// IsShed reports a typed load-shed or drain refusal — the sound
// "undecided" give-up worth retrying against another replica.
func IsShed(err error) bool {
	var e *Error
	return errors.As(err, &e) && (e.Kind == KindOverloaded || e.Kind == KindDraining)
}

// IsUnauthorized reports a 401 bearer-token rejection.
func IsUnauthorized(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.Kind == KindUnauthorized
}
