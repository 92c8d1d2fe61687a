package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"wishbone/internal/server"
)

// TestPprofOffTheAPIListener pins where the profiler is reachable. What
// could leak it onto the API is linking net/http/pprof, whose init
// registers on http.DefaultServeMux, and this binary links it with and
// without -pprof: the API handler must answer /debug/pprof/ with 404
// regardless, and the mux the flag's listener serves must have it.
func TestPprofOffTheAPIListener(t *testing.T) {
	get := func(h http.Handler, path string) int {
		srv := httptest.NewServer(h)
		defer srv.Close()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	svc := server.New(server.Config{})
	defer svc.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/profile"} {
		if code := get(svc.Handler(), path); code != http.StatusNotFound {
			t.Errorf("API listener: %s answered %d, want 404", path, code)
		}
	}
	if code := get(svc.Handler(), "/v1/stats"); code != http.StatusOK {
		t.Errorf("API listener: /v1/stats answered %d", code)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap"} {
		if code := get(http.DefaultServeMux, path); code != http.StatusOK {
			t.Errorf("-pprof listener: %s answered %d", path, code)
		}
	}
}
