package client

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pathslice/internal/service"
)

const srcBug = `
int a;
void main() {
  int x = 3;
  if (a == 0) {
    error;
  }
}
`

func newClient(t *testing.T, url string, mutate func(*Options)) *Client {
	t.Helper()
	opts := Options{
		BaseURL:     url,
		MaxRetries:  4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Seed:        42,
	}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func writeBody(w http.ResponseWriter, status int, v any) {
	raw, _ := json.Marshal(v)
	sum := sha256.Sum256(raw)
	w.Header().Set("X-Checksum-SHA256", hex.EncodeToString(sum[:]))
	w.WriteHeader(status)
	w.Write(raw)
}

func TestSliceSuccessVerifiesAndCorrelates(t *testing.T) {
	var gotRID, gotHash atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotRID.Store(r.Header.Get("X-Request-ID"))
		gotHash.Store(r.Header.Get("X-Content-SHA256"))
		writeBody(w, http.StatusOK, service.SliceResponse{
			RequestID: r.Header.Get("X-Request-ID"), Verdict: service.VerdictOK,
		})
	}))
	defer srv.Close()

	c := newClient(t, srv.URL, nil)
	resp, err := c.Slice(context.Background(), &service.SliceRequest{Source: srcBug})
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if resp.Verdict != service.VerdictOK {
		t.Fatalf("verdict = %q", resp.Verdict)
	}
	if rid, _ := gotRID.Load().(string); rid == "" || resp.RequestID != rid {
		t.Fatalf("request id not correlated: sent %q, got back %q", rid, resp.RequestID)
	}
	if h, _ := gotHash.Load().(string); len(h) != 64 {
		t.Fatalf("X-Content-SHA256 not sent (got %q)", h)
	}
}

func TestRetriesShedThenSucceeds(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeBody(w, http.StatusServiceUnavailable, service.ErrorResponse{
				Error: "overloaded", Message: "busy", Degraded: true,
				Verdict: service.VerdictUndecided, ExitCode: service.ExitUndecided,
				RetryAfterMS: 1,
			})
			return
		}
		writeBody(w, http.StatusOK, service.SliceResponse{Verdict: service.VerdictOK})
	}))
	defer srv.Close()

	c := newClient(t, srv.URL, nil)
	if _, err := c.Slice(context.Background(), &service.SliceRequest{Source: "x"}); err != nil {
		t.Fatalf("Slice after sheds: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("calls = %d, want 3 (2 sheds + 1 success)", n)
	}
}

func TestPermanentErrorsDoNotRetry(t *testing.T) {
	cases := []struct {
		name   string
		status int
		kind   string
		check  func(error) bool
	}{
		{"invalid_program", http.StatusUnprocessableEntity, "invalid_program", nil},
		{"unauthorized", http.StatusUnauthorized, "unauthorized", IsUnauthorized},
		{"bad_request", http.StatusBadRequest, "bad_request", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				writeBody(w, tc.status, service.ErrorResponse{Error: tc.kind, Message: tc.name})
			}))
			defer srv.Close()
			c := newClient(t, srv.URL, nil)
			_, err := c.Slice(context.Background(), &service.SliceRequest{Source: "x"})
			var e *Error
			if !AsError(err, &e) || e.Kind != tc.kind || e.Status != tc.status {
				t.Fatalf("err = %v, want typed %s/%d", err, tc.kind, tc.status)
			}
			if e.Retryable() {
				t.Fatalf("%s must not be retryable", tc.kind)
			}
			if n := calls.Load(); n != 1 {
				t.Fatalf("calls = %d, want 1 (no retries)", n)
			}
			if tc.check != nil && !tc.check(err) {
				t.Fatalf("predicate failed for %v", err)
			}
		})
	}
}

func TestChecksumMismatchRetries(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Valid JSON, wrong checksum: simulates in-flight corruption
			// of a response that still parses.
			raw, _ := json.Marshal(service.SliceResponse{Verdict: service.VerdictBug, ExitCode: service.ExitBug})
			w.Header().Set("X-Checksum-SHA256", "deadbeef")
			w.WriteHeader(http.StatusOK)
			w.Write(raw)
			return
		}
		writeBody(w, http.StatusOK, service.SliceResponse{Verdict: service.VerdictOK})
	}))
	defer srv.Close()

	c := newClient(t, srv.URL, nil)
	resp, err := c.Slice(context.Background(), &service.SliceRequest{Source: "x"})
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if resp.Verdict != service.VerdictOK {
		t.Fatalf("corrupted verdict leaked through: %q", resp.Verdict)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("calls = %d, want 2", n)
	}
}

func TestGarbageBodyRetries(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"verdic`)) // truncated mid-body
			return
		}
		writeBody(w, http.StatusOK, service.SliceResponse{Verdict: service.VerdictOK})
	}))
	defer srv.Close()

	c := newClient(t, srv.URL, nil)
	if _, err := c.Slice(context.Background(), &service.SliceRequest{Source: "x"}); err != nil {
		t.Fatalf("Slice: %v", err)
	}
}

// TestVersionSkewDoesNotRetry: a 200 whose body matches its checksum
// but carries a field this client's wire type lacks came from a daemon
// of another API version. Retrying would re-run the request there and
// fail the same way, so the call fails at once with a permanent error.
func TestVersionSkewDoesNotRetry(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeBody(w, http.StatusOK, map[string]any{
			"verdict": service.VerdictOK, "exit_code": 0, "field_from_a_newer_daemon": 1,
		})
	}))
	defer srv.Close()

	c := newClient(t, srv.URL, nil)
	_, err := c.Check(context.Background(), &service.CheckRequest{Source: srcBug})
	var e *Error
	if !AsError(err, &e) {
		t.Fatalf("err = %v, want a typed *Error", err)
	}
	if e.Kind != KindVersionSkew || e.Retryable() {
		t.Errorf("kind %q retryable %v, want %q and not retryable", e.Kind, e.Retryable(), KindVersionSkew)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("the daemon saw %d requests, want 1", n)
	}
}

func TestHedgeWinsOverStalledPrimary(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// First request stalls until the test ends.
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		writeBody(w, http.StatusOK, service.SliceResponse{Verdict: service.VerdictOK})
	}))
	defer srv.Close()
	defer close(release)

	c := newClient(t, srv.URL, func(o *Options) { o.Hedge = 10 * time.Millisecond })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := c.Slice(ctx, &service.SliceRequest{Source: "x"})
	if err != nil {
		t.Fatalf("hedged Slice: %v", err)
	}
	if resp.Verdict != service.VerdictOK {
		t.Fatalf("verdict = %q", resp.Verdict)
	}
	if n := calls.Load(); n < 2 {
		t.Fatalf("calls = %d, want hedge to have fired", n)
	}
}

func TestHealthReportsDraining(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeBody(w, http.StatusServiceUnavailable, service.HealthResponse{
			Status: "draining", Draining: true, UptimeMS: 5,
		})
	}))
	defer srv.Close()

	c := newClient(t, srv.URL, func(o *Options) { o.MaxRetries = -1 })
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("Health of draining server: %v", err)
	}
	if !h.Draining || h.Status != "draining" {
		t.Fatalf("health = %+v, want draining", h)
	}
}

func TestNetworkErrorIsTypedAndRetried(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close() // nothing listening anymore

	c := newClient(t, url, func(o *Options) { o.MaxRetries = 2 })
	_, err := c.Slice(context.Background(), &service.SliceRequest{Source: "x"})
	var e *Error
	if !AsError(err, &e) || e.Kind != KindNetwork {
		t.Fatalf("err = %v, want network kind", err)
	}
	if !e.Retryable() {
		t.Fatal("network errors must be retryable")
	}
}

func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		e    Error
		want int
	}{
		{Error{Kind: KindOverloaded, ExitCode: service.ExitUndecided}, service.ExitUndecided},
		{Error{Kind: "bad_request", Status: 400}, service.ExitUsage},
		{Error{Kind: KindUnauthorized, Status: 401}, service.ExitUsage},
		{Error{Kind: KindNetwork}, service.ExitInternal},
		{Error{Kind: KindChecksum}, service.ExitInternal},
	}
	for _, tc := range cases {
		if got := tc.e.Exit(); got != tc.want {
			t.Errorf("Exit(%s) = %d, want %d", tc.e.Kind, got, tc.want)
		}
	}
}

func TestAgainstRealServer(t *testing.T) {
	s := service.New(service.Config{AuthToken: "sesame"})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Wrong token: typed 401.
	bad := newClient(t, srv.URL, func(o *Options) { o.AuthToken = "wrong"; o.MaxRetries = -1 })
	if _, err := bad.Slice(context.Background(), &service.SliceRequest{Source: srcBug}); !IsUnauthorized(err) {
		t.Fatalf("wrong token: err = %v, want unauthorized", err)
	}

	c := newClient(t, srv.URL, func(o *Options) { o.AuthToken = "sesame" })
	resp, err := c.Slice(context.Background(), &service.SliceRequest{Source: srcBug})
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if resp.Verdict != service.VerdictBug || resp.ExitCode != service.ExitBug {
		t.Fatalf("verdict = %q/%d, want bug/3", resp.Verdict, resp.ExitCode)
	}
	if resp.RequestID == "" {
		t.Fatal("response missing request_id")
	}

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Requests < 1 {
		t.Fatalf("stats.requests = %d", st.Requests)
	}

	h, err := c.Health(context.Background())
	if err != nil || h.Status != "ok" {
		t.Fatalf("Health = %+v, %v", h, err)
	}

	// Drain: health flips, sessions are refused with the typed kind.
	s.StartDrain()
	h, err = c.Health(context.Background())
	if err != nil {
		t.Fatalf("Health while draining: %v", err)
	}
	if !h.Draining {
		t.Fatalf("health = %+v, want draining", h)
	}
	one := newClient(t, srv.URL, func(o *Options) { o.AuthToken = "sesame"; o.MaxRetries = -1 })
	_, err = one.Slice(context.Background(), &service.SliceRequest{Source: srcBug})
	var e *Error
	if !AsError(err, &e) || e.Kind != KindDraining || e.Verdict != service.VerdictUndecided {
		t.Fatalf("draining slice: err = %v, want typed draining/undecided", err)
	}
}
