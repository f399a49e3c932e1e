package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzPredictRequest posts arbitrary bytes as a /v1/predict body
// through the full handler stack. No body may produce a 500 (a handler
// panic), every non-200 answer must be a well-formed ErrorResponse
// envelope with a code, and every 200 must decode as a PredictResponse.
func FuzzPredictRequest(f *testing.F) {
	const prog = "program p\n  integer i, n\n  real a(100), s\n  do i = 1, n\n    if (a(i) .gt. 0.5) then\n      s = s + a(i)\n    end if\n  end do\nend\n"
	for _, req := range []PredictRequest{
		{Source: prog},
		{Source: prog, Machine: "POWER2F", Args: map[string]float64{"n": 100}},
		{Source: prog, Args: map[string]float64{"m": 1}},
		{Source: prog, Machine: "no-such-machine"},
		{Source: prog, Spec: json.RawMessage(`{"name":"x","dispatch":0}`)},
		{Source: "program p\n  x = \nend\n"},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, raw := range []string{"", "{", "null", "[]", `{"source": 7}`, `{"source":"program p\nend\n","args":{"n":1e308}}`} {
		f.Add([]byte(raw))
	}
	h := New(Config{Timeout: 2 * time.Second}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		out := rec.Body.Bytes()
		switch rec.Code {
		case http.StatusOK:
			var pr PredictResponse
			if err := json.Unmarshal(out, &pr); err != nil || pr.Cost == "" {
				t.Fatalf("200 body is not a PredictResponse (%v): %s", err, out)
			}
		case http.StatusInternalServerError:
			t.Fatalf("500 for body %q: %s", body, out)
		default:
			var er ErrorResponse
			dec := json.NewDecoder(bytes.NewReader(out))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&er); err != nil || er.Error.Code == "" {
				t.Fatalf("status %d body is not an ErrorResponse (%v): %s", rec.Code, err, out)
			}
		}
	})
}
