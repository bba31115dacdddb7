package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// headers holds the headers of the last request a scripted server saw.
type headers struct {
	mu   sync.Mutex
	last http.Header
}

func (h *headers) get() http.Header {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last
}

// scripted answers each path one way: 200 with JSON (a posted count
// plus seven), 204, 404 with an error body, 410 with none, and 500 with
// a body that is not JSON.
func scripted(t *testing.T) (*httptest.Server, *headers) {
	t.Helper()
	seen := &headers{}
	answer := func(code int, body string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			seen.mu.Lock()
			seen.last = r.Header.Clone()
			seen.mu.Unlock()
			b := body
			if code == http.StatusOK {
				var in struct{ N int }
				_ = json.NewDecoder(r.Body).Decode(&in)
				b = fmt.Sprintf(`{"n": %d}`, in.N+7)
			}
			w.WriteHeader(code)
			fmt.Fprint(w, b)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", answer(http.StatusOK, ""))
	mux.HandleFunc("/empty", answer(http.StatusNoContent, ""))
	mux.HandleFunc("/missing", answer(http.StatusNotFound, `{"error": "no such thing"}`))
	mux.HandleFunc("/gone", answer(http.StatusGone, ""))
	mux.HandleFunc("/broken", answer(http.StatusInternalServerError, "<html>upstream exploded</html>"))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, seen
}

func TestCall(t *testing.T) {
	ts, _ := scripted(t)
	c := Conn{Base: ts.URL}
	ctx := context.Background()
	type out struct{ N int }
	for _, tc := range []struct {
		path   string
		status int    // Call's status
		code   int    // StatusCode of Call's error
		n      int    // out.N afterwards; it starts at -1
		msg    string // the error's message; "" for none
	}{
		{"/ok", http.StatusOK, 0, 7, ""},
		{"/empty", http.StatusNoContent, 0, -1, ""},
		{"/missing", http.StatusNotFound, http.StatusNotFound, -1, "GET /missing: no such thing (404 Not Found)"},
		{"/gone", http.StatusGone, http.StatusGone, -1, "GET /gone: 410 Gone"},
		{"/broken", http.StatusInternalServerError, http.StatusInternalServerError, -1, "GET /broken: 500 Internal Server Error"},
	} {
		o := out{N: -1}
		status, err := c.Call(ctx, http.MethodGet, tc.path, nil, &o)
		if status != tc.status || StatusCode(err) != tc.code || o.N != tc.n {
			t.Errorf("GET %s: status %d, StatusCode %d, out %d; want %d, %d, %d",
				tc.path, status, StatusCode(err), o.N, tc.status, tc.code, tc.n)
		}
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		if msg != tc.msg {
			t.Errorf("GET %s: error %q, want %q", tc.path, msg, tc.msg)
		}
	}

	// A posted body goes out as JSON.
	var o out
	if _, err := c.Call(ctx, http.MethodPost, "/ok", out{N: 3}, &o); err != nil || o.N != 10 {
		t.Errorf("POST /ok: out %d, %v; want 10", o.N, err)
	}

	// A transport error is not an answer: it classifies as 0.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close()
	status, err := Conn{Base: closed}.Call(ctx, http.MethodGet, "/ok", nil, &o)
	if err == nil || status != 0 || StatusCode(err) != 0 {
		t.Errorf("closed listener: status %d, StatusCode %d, err %v; want 0, 0 and an error", status, StatusCode(err), err)
	}
	if StatusCode(nil) != 0 {
		t.Error("StatusCode(nil) != 0")
	}
}

// TestSendHeaders: the bearer token and the client ID are sent only
// when set, and a JSON body is labelled as one.
func TestSendHeaders(t *testing.T) {
	ts, seen := scripted(t)
	ctx := context.Background()
	if _, err := (Conn{Base: ts.URL}).Call(ctx, http.MethodGet, "/ok", nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"Authorization", "X-Sdiq-Client", "Content-Type"} {
		if v, ok := seen.get()[h]; ok {
			t.Errorf("bare request sent %s: %q", h, v)
		}
	}
	c := Conn{Base: ts.URL, Token: "s3cret", ID: "alice"}
	if _, err := c.Call(ctx, http.MethodPost, "/ok", struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	for h, want := range map[string]string{
		"Authorization": "Bearer s3cret",
		"X-Sdiq-Client": "alice",
		"Content-Type":  "application/json",
	} {
		if got := seen.get().Get(h); got != want {
			t.Errorf("%s = %q, want %q", h, got, want)
		}
	}
}

// TestBackoff: each delay is within [0.75, 1.25] of the nominal one,
// which doubles from base and stops at ceil.
func TestBackoff(t *testing.T) {
	base, ceil := 100*time.Millisecond, time.Second
	nominal := []time.Duration{100, 200, 400, 800, 1000, 1000}
	for n, ms := range nominal {
		d := ms * time.Millisecond
		for range 200 {
			if got := Backoff(n, base, ceil); got < d*3/4 || got > d*5/4 {
				t.Fatalf("Backoff(%d) = %v, outside [%v, %v]", n, got, d*3/4, d*5/4)
			}
		}
	}
	if got := Backoff(1000, base, ceil); got < ceil*3/4 || got > ceil*5/4 {
		t.Errorf("Backoff(1000) = %v, want within [%v, %v]", got, ceil*3/4, ceil*5/4)
	}
}
