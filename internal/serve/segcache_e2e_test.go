package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestE2ESharedSegCacheSeparatesDeclarations sends two programs with
// identical executable text and different declarations to one server,
// whose segment cache is shared by every request, and byte-compares
// each response with a fresh server's answer to the same request.
func TestE2ESharedSegCacheSeparatesDeclarations(t *testing.T) {
	srcs := []string{
		"program p\nreal x, y, s\ninteger i\ndo i = 1, 100\ns = s + x * y\nenddo\nend\n",
		"program p\ninteger x, y, s\ninteger i\ndo i = 1, 100\ns = s + x * y\nenddo\nend\n",
	}
	shared := httptest.NewServer(New(Config{}).Handler())
	defer shared.Close()
	var bodies [2][]byte
	for i, src := range srcs {
		status, got := postJSON(t, shared, "/v1/predict", PredictRequest{Source: src})
		if status != http.StatusOK {
			t.Fatalf("program %d: status %d: %s", i, status, got)
		}
		fresh := httptest.NewServer(New(Config{}).Handler())
		status, want := postJSON(t, fresh, "/v1/predict", PredictRequest{Source: src})
		fresh.Close()
		if status != http.StatusOK {
			t.Fatalf("program %d on a fresh server: status %d: %s", i, status, want)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("program %d: shared server\n%s\nfresh server\n%s", i, got, want)
		}
		bodies[i] = want
	}
	if bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("the two programs price identically; the test needs differing costs")
	}
}
