package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/auth"
)

// Authentication middleware. With Config.Auth unset every wrapper is a
// pass-through and the service behaves exactly as before (identity from
// the X-Sdiq-Client header, fleet open). With Config.Auth set, every
// /v1/* route demands a bearer token mapping to a principal of the
// route's role: campaign endpoints (submit, list, status, events,
// export, delete) are tenant-only; the worker protocol (lease,
// heartbeat, result, leave) and the checkpoint endpoints are
// worker-only; /metrics accepts any valid token or none; /healthz stays
// open for load balancers.

// principalKey carries the authenticated principal in the request
// context.
type principalKey struct{}

// principalFrom returns the principal the middleware authenticated.
func principalFrom(r *http.Request) (auth.Principal, bool) {
	p, ok := r.Context().Value(principalKey{}).(auth.Principal)
	return p, ok
}

// bearerToken extracts the Authorization bearer credential. present is
// false when no Authorization header was sent; a present header that is
// not a bearer credential is a malformed error.
func bearerToken(r *http.Request) (token string, present bool, err error) {
	h := r.Header.Get("Authorization")
	if h == "" {
		return "", false, nil
	}
	scheme, rest, found := strings.Cut(h, " ")
	if !found || !strings.EqualFold(scheme, "Bearer") || strings.TrimSpace(rest) == "" {
		return "", true, fmt.Errorf("malformed Authorization header (want \"Bearer <token>\")")
	}
	return strings.TrimSpace(rest), true, nil
}

// writeUnauthorized answers 401 with the structured error body plus the
// challenge header the status code requires.
func writeUnauthorized(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("WWW-Authenticate", `Bearer realm="sdiqd"`)
	writeError(w, http.StatusUnauthorized, format, args...)
}

// authenticate resolves the request's token against the token file,
// answering 401 itself on failure. ok is false when the response has
// been written.
func (s *Server) authenticate(w http.ResponseWriter, r *http.Request) (auth.Principal, bool) {
	token, present, err := bearerToken(r)
	if err != nil {
		s.met.authFailures.Add(1)
		writeUnauthorized(w, "%v", err)
		return auth.Principal{}, false
	}
	if !present {
		s.met.authFailures.Add(1)
		writeUnauthorized(w, "authentication required")
		return auth.Principal{}, false
	}
	p, found := s.cfg.Auth.Lookup(token)
	if !found {
		s.met.authFailures.Add(1)
		writeUnauthorized(w, "unknown token")
		return auth.Principal{}, false
	}
	return p, true
}

// requireRole gates a handler on an authenticated principal of the
// given role (401 no/bad token, 403 wrong role). A no-op when auth is
// off.
func (s *Server) requireRole(role auth.Role, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Auth == nil {
			h(w, r)
			return
		}
		p, ok := s.authenticate(w, r)
		if !ok {
			return
		}
		if p.Role != role {
			s.met.authFailures.Add(1)
			writeError(w, http.StatusForbidden, "principal %q has role %q, endpoint requires %q", p.Name, p.Role, role)
			return
		}
		h(w, r.WithContext(context.WithValue(r.Context(), principalKey{}, p)))
	}
}

// optionalAuth passes a request without an Authorization header
// through as it is and authenticates any other, so a token that is
// presented and wrong still gets 401 — a scraper with a rotated-out
// credential should hear about it, not silently degrade.
func (s *Server) optionalAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Auth == nil || r.Header.Get("Authorization") == "" {
			h(w, r)
			return
		}
		p, ok := s.authenticate(w, r)
		if !ok {
			return
		}
		h(w, r.WithContext(context.WithValue(r.Context(), principalKey{}, p)))
	}
}

// clientOf resolves the submitting client's identity for quotas,
// ownership and durable metadata. With auth on it is the authenticated
// principal, never a header. With auth off it is the X-Sdiq-Client
// header when present (validated — the name flows into quota maps and,
// under tenant isolation, cache paths), else a sanitized host:port of
// the remote address: keeping the port means two NAT'd clients behind
// one address get separate quota buckets instead of sharing one, and a
// restart-reassigned address does not inherit a stranger's.
func (s *Server) clientOf(r *http.Request) (string, error) {
	if s.cfg.Auth != nil {
		p, ok := principalFrom(r)
		if !ok {
			// The middleware always runs first on authed routes; reaching
			// here is a programming error, not a client mistake.
			return "", fmt.Errorf("no authenticated principal on request")
		}
		return p.Name, nil
	}
	if id := r.Header.Get("X-Sdiq-Client"); id != "" {
		if !auth.ValidName(id) {
			return "", fmt.Errorf("invalid client id %q (want [a-z0-9._-]{1,64})", id)
		}
		return id, nil
	}
	return sanitizeClient(r.RemoteAddr), nil
}

// sanitizeClient maps an arbitrary string (a remote host:port) into the
// principal-name charset so it is safe in quota maps, metrics labels
// and tenant paths.
func sanitizeClient(addr string) string {
	var b strings.Builder
	for _, c := range strings.ToLower(addr) {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			b.WriteRune(c)
		default:
			b.WriteByte('-')
		}
		if b.Len() >= 64 {
			break
		}
	}
	out := b.String()
	if !auth.ValidName(out) {
		return "unknown"
	}
	return out
}

// ownsCampaign reports whether the request's principal may see rc. With
// auth off everyone sees everything (the pre-auth service behaviour);
// with auth on a tenant sees only its own campaigns.
func (s *Server) ownsCampaign(r *http.Request, rc *campaignRun) bool {
	if s.cfg.Auth == nil {
		return true
	}
	p, ok := principalFrom(r)
	return ok && p.Name == rc.client
}
