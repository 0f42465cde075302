// Package client is the Go client for the slicerd HTTP API
// (docs/API.md): typed wrappers over POST /v1/slice and /v1/check plus
// the GET endpoints, with the retry discipline a flaky network
// demands and the verification a *correctness* service demands.
//
// The design follows the same degradation contract as the server
// (docs/ROBUSTNESS.md): every failure the transport can produce maps
// to a typed *Error that is either retryable (network faults, load
// sheds, drains, corrupted bytes, 5xx) or permanent (bad requests,
// invalid programs, bad credentials). Retryable failures are retried
// with capped exponential backoff and deterministic seeded jitter,
// honoring the server's retry_after_ms hint on sheds; an optional
// hedged second request bounds tail latency when a connection stalls.
//
// Integrity is end to end: requests carry an X-Content-SHA256 body
// hash the server verifies before decoding, responses carry an
// X-Checksum-SHA256 the client verifies before trusting a verdict,
// and response bodies are decoded strictly (unknown fields are an
// error). A proxy that flips a byte therefore produces a retryable
// typed error — never a silently altered verdict. cmd/chaossmoke
// drives exactly that scenario through internal/faults' wire proxy. A
// body that matches its checksum but does not decode came from a
// daemon of another API version: a permanent version_skew error.
package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"pathslice/internal/obs"
	"pathslice/internal/service"
)

// Registry metrics (docs/OBSERVABILITY.md).
var (
	mRetries   = obs.Default().Counter("client_retries_total")
	mHedges    = obs.Default().Counter("client_hedges_total")
	mChecksum  = obs.Default().Counter("client_checksum_failures_total")
	mRequests  = obs.Default().Counter("client_requests_total")
	mFailures  = obs.Default().Counter("client_failures_total")
	mAttemptNS = obs.Default().Histogram("client_attempt_ns")
)

// Options configures a Client. The zero value of every field takes the
// default documented on it; BaseURL is required.
type Options struct {
	// BaseURL is the daemon's API root, e.g. "http://127.0.0.1:7463"
	// (required). Use "https://..." with a TLS-serving daemon.
	BaseURL string
	// HTTPClient overrides the transport (default: a dedicated
	// http.Client; pass one with a custom TLS config to trust a
	// self-signed -tls-cert).
	HTTPClient *http.Client
	// AuthToken, when set, is sent as `Authorization: Bearer <token>`.
	AuthToken string
	// MaxRetries bounds retry attempts after the first try (default 4;
	// negative disables retries).
	MaxRetries int
	// BaseBackoff is the first retry delay (default 50ms); MaxBackoff
	// caps the exponential growth (default 2s). The server's
	// retry_after_ms hint overrides a smaller computed delay.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Hedge, when positive, fires a second identical request if the
	// first has not answered within this duration; the first usable
	// answer wins. Safe because slice/check are idempotent reads of
	// derived state.
	Hedge time.Duration
	// Seed makes the backoff jitter deterministic (0 seeds from the
	// clock). Chaos tests pin it so schedules replay.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = uint64(time.Now().UnixNano())
	}
	return o
}

// Client is a slicerd API client. Safe for concurrent use.
type Client struct {
	opts Options

	mu  sync.Mutex
	rng *rand.Rand
	seq int64
}

// New builds a Client. Returns an error only for a missing BaseURL.
func New(opts Options) (*Client, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("client: BaseURL is required")
	}
	opts = opts.withDefaults()
	return &Client{
		opts: opts,
		rng:  rand.New(rand.NewPCG(opts.Seed, opts.Seed^0x9e3779b97f4a7c15)),
	}, nil
}

// SetBaseURL repoints the client (chaos tests restart daemons on new
// ports; production callers re-resolve a moved endpoint).
func (c *Client) SetBaseURL(u string) {
	c.mu.Lock()
	c.opts.BaseURL = u
	c.mu.Unlock()
}

func (c *Client) baseURL() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opts.BaseURL
}

// Slice calls POST /v1/slice.
func (c *Client) Slice(ctx context.Context, req *service.SliceRequest) (*service.SliceResponse, error) {
	var resp service.SliceResponse
	if err := c.call(ctx, http.MethodPost, "/v1/slice", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Check calls POST /v1/check.
func (c *Client) Check(ctx context.Context, req *service.CheckRequest) (*service.CheckResponse, error) {
	var resp service.CheckResponse
	if err := c.call(ctx, http.MethodPost, "/v1/check", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats calls GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (*service.StatsResponse, error) {
	var resp service.StatsResponse
	if err := c.call(ctx, http.MethodGet, "/v1/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health calls GET /v1/healthz. A draining daemon answers HTTP 503
// with a well-formed HealthResponse; that is returned as a response,
// not an error, so callers can distinguish "draining" from "down".
func (c *Client) Health(ctx context.Context) (*service.HealthResponse, error) {
	var resp service.HealthResponse
	err := c.call(ctx, http.MethodGet, "/v1/healthz", nil, &resp)
	if err != nil {
		var e *Error
		if AsError(err, &e) && e.Status == http.StatusServiceUnavailable && e.Kind == KindDecode {
			// 503 with a HealthResponse body: re-decode as health.
			if jerr := strictDecode(e.body, &resp); jerr == nil {
				return &resp, nil
			}
		}
		return nil, err
	}
	return &resp, nil
}

// ---------------------------------------------------------------------------
// Retry engine

// call runs one logical API call: marshal once, then up to
// 1+MaxRetries attempts (each possibly hedged), with backoff between
// retryable failures. One request ID correlates every attempt of the
// logical call in the server's JSONL trace.
func (c *Client) call(ctx context.Context, method, path string, req, resp any) error {
	mRequests.Inc()
	var body []byte
	if req != nil {
		var err error
		body, err = json.Marshal(req)
		if err != nil {
			return &Error{Kind: KindInternal, Message: "encoding request: " + err.Error()}
		}
	}
	rid := c.newRequestID()

	var last error
	for attempt := 0; ; attempt++ {
		err := c.attemptHedged(ctx, method, path, rid, body, resp)
		if err == nil {
			return nil
		}
		last = err
		var e *Error
		if !AsError(err, &e) || !e.Retryable() || attempt >= c.opts.MaxRetries {
			mFailures.Inc()
			return last
		}
		mRetries.Inc()
		if werr := c.sleep(ctx, c.backoff(attempt, e.RetryAfterMS)); werr != nil {
			mFailures.Inc()
			return last // the caller's deadline beats another attempt
		}
	}
}

// attemptHedged runs one attempt, racing a hedge copy if the primary
// has not answered within Options.Hedge. The loser's context is
// cancelled; the first usable result (success or permanent error)
// wins, and if both fail retryably the primary's error is reported.
func (c *Client) attemptHedged(ctx context.Context, method, path, rid string, body []byte, resp any) error {
	if c.opts.Hedge <= 0 || method != http.MethodPost {
		return c.attempt(ctx, method, path, rid, body, resp)
	}
	type outcome struct {
		err     error
		primary bool
	}
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	results := make(chan outcome, 2)
	launch := func(primary bool, dst any) {
		results <- outcome{err: c.attempt(actx, method, path, rid, body, dst), primary: primary}
	}
	go launch(true, resp)

	hedgeTimer := time.NewTimer(c.opts.Hedge)
	defer hedgeTimer.Stop()
	hedged := false
	// The hedge decodes into its own value: two goroutines must not
	// race on resp. The winner's copy is moved into resp at the end.
	hedgeResp := newLike(resp)

	var firstErr error
	for seen := 0; seen < 2; {
		select {
		case <-hedgeTimer.C:
			if !hedged {
				hedged = true
				mHedges.Inc()
				go launch(false, hedgeResp)
			}
		case out := <-results:
			seen++
			if out.err == nil {
				if !out.primary {
					moveValue(resp, hedgeResp)
				}
				return nil
			}
			var e *Error
			if AsError(out.err, &e) && !e.Retryable() {
				return out.err
			}
			if firstErr == nil || out.primary {
				firstErr = out.err
			}
			if !hedged {
				// Primary failed before the hedge fired: no point
				// waiting out the timer, report and let call() retry.
				return firstErr
			}
		case <-ctx.Done():
			return &Error{Kind: KindNetwork, Message: ctx.Err().Error()}
		}
	}
	return firstErr
}

// attempt is one wire exchange: send, verify the response checksum,
// decode strictly, classify.
func (c *Client) attempt(ctx context.Context, method, path, rid string, body []byte, resp any) error {
	start := time.Now()
	defer func() { mAttemptNS.ObserveDuration(time.Since(start)) }()

	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.baseURL()+path, rd)
	if err != nil {
		return &Error{Kind: KindInternal, Message: err.Error()}
	}
	hreq.Header.Set("X-Request-ID", rid)
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
		sum := sha256.Sum256(body)
		hreq.Header.Set("X-Content-SHA256", hex.EncodeToString(sum[:]))
	}
	if c.opts.AuthToken != "" {
		hreq.Header.Set("Authorization", "Bearer "+c.opts.AuthToken)
	}

	hresp, err := c.opts.HTTPClient.Do(hreq)
	if err != nil {
		return &Error{Kind: KindNetwork, Message: err.Error(), RequestID: rid}
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, 64<<20))
	if err != nil {
		return &Error{Kind: KindNetwork, Status: hresp.StatusCode, Message: "reading response: " + err.Error(), RequestID: rid}
	}
	want := hresp.Header.Get("X-Checksum-SHA256")
	if want != "" {
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != want {
			mChecksum.Inc()
			return &Error{
				Kind: KindChecksum, Status: hresp.StatusCode, RequestID: rid,
				Message: fmt.Sprintf("response body hash %s != header %s (corrupted in transit)", got, want),
			}
		}
	}
	if hresp.StatusCode == http.StatusOK {
		if err := strictDecode(raw, resp); err != nil {
			// Bytes that match their checksum arrived as the daemon
			// sent them, so it speaks another wire version. Without a
			// checksum the body may be damaged in transit (the server
			// encodes wire types by construction): worth a retry.
			kind := KindDecode
			if want != "" {
				kind = KindVersionSkew
			}
			return &Error{Kind: kind, Status: hresp.StatusCode, Message: err.Error(), RequestID: rid, body: raw}
		}
		return nil
	}
	var eresp service.ErrorResponse
	if err := strictDecode(raw, &eresp); err != nil || eresp.Error == "" {
		return &Error{Kind: KindDecode, Status: hresp.StatusCode, Message: fmt.Sprintf("undecodable %d response", hresp.StatusCode), RequestID: rid, body: raw}
	}
	e := &Error{
		Kind:         eresp.Error,
		Status:       hresp.StatusCode,
		Message:      eresp.Message,
		Verdict:      eresp.Verdict,
		ExitCode:     eresp.ExitCode,
		RetryAfterMS: eresp.RetryAfterMS,
		Degraded:     eresp.Degraded,
		RequestID:    eresp.RequestID,
	}
	if e.RequestID == "" {
		e.RequestID = rid
	}
	return e
}

func strictDecode(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// newLike and moveValue give the hedge goroutine its own decode target
// of the same wire type, so primary and hedge never write one value.
func newLike(v any) any {
	switch v.(type) {
	case *service.SliceResponse:
		return new(service.SliceResponse)
	case *service.CheckResponse:
		return new(service.CheckResponse)
	case *service.StatsResponse:
		return new(service.StatsResponse)
	case *service.HealthResponse:
		return new(service.HealthResponse)
	}
	return new(json.RawMessage)
}

func moveValue(dst, src any) {
	switch d := dst.(type) {
	case *service.SliceResponse:
		*d = *src.(*service.SliceResponse)
	case *service.CheckResponse:
		*d = *src.(*service.CheckResponse)
	case *service.StatsResponse:
		*d = *src.(*service.StatsResponse)
	case *service.HealthResponse:
		*d = *src.(*service.HealthResponse)
	}
}

// backoff computes the pre-attempt delay: exponential with full jitter
// in [delay/2, delay], capped at MaxBackoff, floored by the server's
// retry_after_ms hint (a shed server knows its own recovery horizon
// better than our exponent does).
func (c *Client) backoff(attempt, retryAfterMS int) time.Duration {
	d := c.opts.BaseBackoff << uint(attempt)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	c.mu.Lock()
	jittered := d/2 + time.Duration(c.rng.Int64N(int64(d/2)+1))
	c.mu.Unlock()
	if hint := time.Duration(retryAfterMS) * time.Millisecond; jittered < hint {
		jittered = hint
	}
	return jittered
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// newRequestID mints a correlation ID for one logical call. Every
// retry and hedge of the call shares it, so the server's JSONL trace
// groups the whole story under one ID.
func (c *Client) newRequestID() string {
	c.mu.Lock()
	c.seq++
	id := fmt.Sprintf("cl-%08x-%06d", uint32(c.rng.Uint64()), c.seq)
	c.mu.Unlock()
	return id
}
