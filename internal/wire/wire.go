// Package wire is the client half of sdiqd's HTTP conventions, shared
// by the tenant client (internal/serve) and the worker protocol client
// (internal/worker): how a request is addressed and authorized, how an
// error answer is decoded, and how a client backs off while the server
// is away.
package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// ErrorBody is the body of every error answer sdiqd writes.
type ErrorBody struct {
	Error string `json:"error"`
}

// Error is an answered request whose status was 400 or more. A client
// error is an *Error whenever the server replied at all; a transport
// failure is not, and StatusCode tells the two apart.
type Error struct {
	Code   int
	Method string
	Path   string
	Msg    string // the server's error body; "" when it sent none
	Status string // the status line, e.g. "404 Not Found"
}

func (e *Error) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("%s %s: %s (%s)", e.Method, e.Path, e.Msg, e.Status)
	}
	return fmt.Sprintf("%s %s: %s", e.Method, e.Path, e.Status)
}

// StatusCode returns the status of an answered request's error, and 0
// for nil or a transport error.
func StatusCode(err error) int {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return 0
}

// Conn addresses one sdiqd.
type Conn struct {
	Base  string       // server root, e.g. "http://host:8080"
	HTTP  *http.Client // nil means http.DefaultClient
	Token string       // bearer credential; "" sends no Authorization
	ID    string       // X-Sdiq-Client; "" sends none
}

// Send issues one request. An answer below 400 is returned for the
// caller to read and close; an answer of 400 or more is read, closed
// and returned as an *Error.
func (c Conn) Send(ctx context.Context, method, path, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.ID != "" {
		req.Header.Set("X-Sdiq-Client", c.ID)
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err // a *url.Error: it names the method and URL
	}
	if resp.StatusCode < 400 {
		return resp, nil
	}
	defer resp.Body.Close()
	var eb ErrorBody
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb) // a body that is not one leaves Msg empty
	return nil, &Error{Code: resp.StatusCode, Method: method, Path: path, Msg: eb.Error, Status: resp.Status}
}

// Call sends in as JSON (no body when in is nil) and decodes the answer
// into out. A 204 or a nil out leaves out untouched. It returns the
// answer's status code, 0 after a transport error.
func (c Conn) Call(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader
	contentType := ""
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return 0, fmt.Errorf("encoding %s %s: %w", method, path, err)
		}
		body, contentType = bytes.NewReader(blob), "application/json"
	}
	resp, err := c.Send(ctx, method, path, contentType, body)
	if err != nil {
		return StatusCode(err), err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent || out == nil {
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// Backoff returns the nth (0-based) retry delay: base doubled n times
// and capped at ceil, then jittered to [0.75, 1.25] of that, so clients
// that lost one server do not all come back at the same instant.
func Backoff(n int, base, ceil time.Duration) time.Duration {
	d := base
	for i := 0; i < n && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	return d*3/4 + time.Duration(rand.Int63n(int64(d)/2+1))
}
