package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/wire"
)

// Client talks to a campaign service. It is what `sdiq -remote` uses:
// submit the spec, follow the event stream, fetch the finished export.
// Its errors are *wire.Error whenever the server answered; Run's
// reconnect logic keys off that (an answered 404 means the server is
// alive but forgot the campaign; a refused connection means it may be
// restarting).
type Client struct {
	// Base is the server root, e.g. "http://localhost:8080".
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// ID identifies this client for the server's per-client quotas
	// (sent as X-Sdiq-Client when non-empty). Against a server running
	// with -auth the header is ignored: identity is the token's
	// principal.
	ID string
	// Token is a tenant-role bearer credential, sent as
	// "Authorization: Bearer" when non-empty — required against a server
	// running with -auth.
	Token string
	// OnEvent, when non-nil, observes every event Run receives — the
	// hook CLI progress output hangs off.
	OnEvent func(Event)
}

// Run survives server restarts by retrying with jittered exponential
// backoff between these bounds, for up to maxOffline of unreachability.
const (
	retryBase  = 200 * time.Millisecond
	retryMax   = 5 * time.Second
	maxOffline = 2 * time.Minute
)

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) conn() wire.Conn {
	return wire.Conn{Base: c.Base, HTTP: c.HTTP, Token: c.Token, ID: c.ID}
}

// Submit posts a campaign spec and returns the server's handle.
func (c *Client) Submit(ctx context.Context, spec campaign.Spec) (Submitted, error) {
	var sub Submitted
	_, err := c.conn().Call(ctx, http.MethodPost, "/v1/campaigns", spec, &sub)
	return sub, err
}

// Status fetches a campaign's snapshot.
func (c *Client) Status(ctx context.Context, id string) (CampaignInfo, error) {
	var info CampaignInfo
	_, err := c.conn().Call(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &info)
	return info, err
}

// Stream follows a campaign's NDJSON event stream from the beginning,
// calling fn for every event until the stream ends (the campaign is
// done) or fn returns an error.
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) error) error {
	resp, err := c.conn().Send(ctx, http.MethodGet, "/v1/campaigns/"+id+"/events", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("serve: bad event %q: %w", line, err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Export fetches a finished campaign's export in the given format
// ("csv" or "json") — the bytes the CLI's local -export would write.
func (c *Client) Export(ctx context.Context, id, format string) ([]byte, error) {
	resp, err := c.conn().Send(ctx, http.MethodGet, "/v1/campaigns/"+id+"/export?format="+format, "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Delete drops a finished campaign from the server's registry (its
// events and results are gone; the disk cache keeps the simulations).
func (c *Client) Delete(ctx context.Context, id string) error {
	_, err := c.conn().Call(ctx, http.MethodDelete, "/v1/campaigns/"+id, nil, nil)
	return err
}

// ResultSet fetches and decodes a finished campaign.
func (c *Client) ResultSet(ctx context.Context, id string) (*campaign.ResultSet, error) {
	resp, err := c.conn().Send(ctx, http.MethodGet, "/v1/campaigns/"+id+"/export?format=json", "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return campaign.ReadJSON(resp.Body)
}

// Run is the remote analogue of Engine.Run: submit the spec, follow its
// event stream (relaying to OnEvent) to the done event, and return the
// finished ResultSet. Run follows one stream across server restarts:
// events already relayed are filtered by sequence number (a durable
// server that recovered the campaign starts a new log, numbered from 0
// again, which Run relays in full); a stream that broke after events
// arrived is re-opened at once; a transport error is retried with
// jittered backoff for up to maxOffline; and a 404 means the server came
// back with no memory of the campaign, so the spec is resubmitted (the
// shared result cache makes the re-run cheap). A transport failure of
// the export fetch goes round the same loop: the re-opened stream
// replays the log, done arrives again, and the fetch is retried. A
// failed campaign returns its server-side error, and any other answered
// error is returned as it is.
func (c *Client) Run(ctx context.Context, spec campaign.Spec) (*campaign.ResultSet, error) {
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}

	lastSeq := -1
	var logStart time.Time // Time of the relayed log's "submitted" event
	var offlineSince time.Time
	fails := 0
	for {
		var done *Event
		heard := false
		err = c.Stream(ctx, sub.ID, func(ev Event) error {
			heard = true
			if ev.Type == EventSubmitted && !ev.Time.Equal(logStart) {
				// A recovered campaign's log, numbered from 0 again.
				logStart, lastSeq = ev.Time, -1
			}
			if ev.Seq > lastSeq { // else replayed history already relayed
				lastSeq = ev.Seq
				if c.OnEvent != nil {
					c.OnEvent(ev)
				}
			}
			if ev.Type == EventDone {
				done = &ev
			}
			return nil
		})
		if done != nil {
			// The stream's own error no longer matters: the outcome is in.
			if done.Error != "" {
				return nil, fmt.Errorf("%w: %s", errCampaignFailed, done.Error)
			}
			rs, ferr := c.ResultSet(ctx, sub.ID)
			if ferr == nil || wire.StatusCode(ferr) != 0 {
				return rs, ferr
			}
			// The fetch failed in transit: back off, then round again.
			err, heard = ferr, false
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		switch code := wire.StatusCode(err); {
		case code == http.StatusNotFound:
			// The server restarted without durable state: the campaign is
			// gone. Resubmit and follow the new one from the start.
			if sub, err = c.Submit(ctx, spec); err != nil {
				return nil, err
			}
			lastSeq, offlineSince, fails = -1, time.Time{}, 0
			continue
		case code != 0:
			return nil, err // answered with an error waiting cannot fix
		case heard:
			// The stream broke mid-campaign, but the server was up a
			// moment ago: re-attach at once.
			offlineSince, fails = time.Time{}, 0
			continue
		}
		// Transport error: the server may be restarting. Back off, bounded.
		if offlineSince.IsZero() {
			offlineSince = time.Now()
		}
		if time.Since(offlineSince) > maxOffline {
			return nil, fmt.Errorf("serve: server unreachable for %v: %w", maxOffline, err)
		}
		fails++
		select {
		case <-time.After(wire.Backoff(fails-1, retryBase, retryMax)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
