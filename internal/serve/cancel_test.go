package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"perfpredict/internal/kernels"
	"perfpredict/internal/progen"
)

// optimizeBody builds a deliberately long-running /v1/optimize
// request: the matmul kernel with a node budget that would take tens
// of seconds to exhaust.
func optimizeBody(t *testing.T) []byte {
	t.Helper()
	k, err := kernels.Get("matmul")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(OptimizeRequest{
		Source:   k.Src,
		Nominal:  map[string]float64{"n": 50},
		MaxNodes: 1 << 20,
		MaxDepth: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestNoGoroutineLeakOnCancel fires N long optimize requests, cancels
// every one mid-flight, and asserts the goroutine count returns to
// its pre-request baseline: a cancelled client leaves no worker pool,
// no search, and no handler behind.
func TestNoGoroutineLeakOnCancel(t *testing.T) {
	s := New(Config{Timeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := optimizeBody(t)

	baseline := runtime.NumGoroutine()
	const n = 8
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/v1/optimize", bytes.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := ts.Client().Do(req)
			if err == nil {
				resp.Body.Close()
				errc <- errors.New("request succeeded despite 50ms client cancel")
				return
			}
			errc <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	// The handlers observe the cancellation at their next search-node
	// boundary; give them a retry window to unwind, then require the
	// goroutine count back at baseline (small slack for the test
	// server's own accept loop and keep-alive conns).
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: baseline %d, now %d after cancel window\n%s",
				baseline, now, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The server itself must still be fully functional afterwards.
	status, _ := postJSON(t, ts, "/v1/predict", PredictRequest{Source: "program p\nreal x\nx = 1.0\nend\n"})
	if status != http.StatusOK {
		t.Fatalf("server unhealthy after cancels: %d", status)
	}
}

// TestOptimizeDeadlineReturns504 pins the server-side deadline: an
// optimize sized for minutes under a short -timeout comes back
// promptly as a structured 504.
func TestOptimizeDeadlineReturns504(t *testing.T) {
	s := New(Config{Timeout: 200 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	start := time.Now()
	resp, err := ts.Client().Post(ts.URL+"/v1/optimize", "application/json",
		bytes.NewReader(optimizeBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	elapsed := time.Since(start)
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeDeadlineExceeded {
		t.Errorf("code %q, want %q", er.Error.Code, CodeDeadlineExceeded)
	}
	// Within about one node expansion of the deadline (generous ε for
	// loaded CI under -race).
	if elapsed > 200*time.Millisecond+5*time.Second {
		t.Errorf("504 took %v for a 200ms deadline", elapsed)
	}
}

// TestBatchDeadlineReturns504 pins the same contract for the batch
// path: workers stop claiming programs once the deadline passes.
func TestBatchDeadlineReturns504(t *testing.T) {
	s := New(Config{Timeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	k, err := kernels.Get("matmul")
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]string, 400)
	for i := range srcs {
		srcs[i] = k.Src
	}
	status, body := postJSON(t, ts, "/v1/batch", BatchRequest{Sources: srcs, Workers: 1})
	if status != http.StatusGatewayTimeout {
		// A fast machine may finish 400 warm-cache predictions in
		// 50ms; only the structured outcome is pinned, not the race.
		if status == http.StatusOK {
			t.Skip("machine finished the batch inside the deadline")
		}
		t.Fatalf("status %d: %s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeDeadlineExceeded {
		t.Errorf("code %q, want %q", er.Error.Code, CodeDeadlineExceeded)
	}
}

// TestPredictDeadlineFreesSlot pins deadline handling inside pricing:
// a 1000-loop body under a 50ms -timeout stops mid-aggregation with a
// structured 504, and its admission slot is free for the very next
// request.
func TestPredictDeadlineFreesSlot(t *testing.T) {
	s := New(Config{Timeout: 50 * time.Millisecond, MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	long := progen.GenGuardedLoops(progen.NewRand(1), 1000)
	start := time.Now()
	status, body := postJSON(t, ts, "/v1/predict", PredictRequest{Source: long, Machine: "POWER1"})
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%.200s), want 504", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeDeadlineExceeded {
		t.Errorf("code %q, want %q", er.Error.Code, CodeDeadlineExceeded)
	}
	// Generous ε for loaded CI under -race.
	if elapsed > 50*time.Millisecond+5*time.Second {
		t.Errorf("504 took %v for a 50ms deadline", elapsed)
	}
	status, body = postJSON(t, ts, "/v1/predict", PredictRequest{Source: "program p\nreal x\nx = 1.0\nend\n"})
	if status != http.StatusOK {
		t.Fatalf("next request after the 504: status %d (%s), want 200", status, body)
	}
}
