package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// client is the generator's HTTP side. All of its traffic, to every server,
// shares one budget of open connections (the machine's core count), so the
// load generator never holds more sockets than it has threads to drive.
type client struct {
	hc    *http.Client
	tr    *http.Transport
	slots chan struct{}
}

func newClient(conns int) *client {
	c := &client{slots: make(chan struct{}, conns)}
	c.tr = &http.Transport{
		DialContext:         c.dial,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	c.hc = &http.Client{Transport: c.tr}
	return c
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// dial opens a connection once the budget has a free slot. A full budget
// may be held by idle connections to another server; those are closed
// (which returns their slots) while the dial waits.
func (c *client) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case c.slots <- struct{}{}:
			var d net.Dialer
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				<-c.slots
				return nil, err
			}
			return &budgetConn{Conn: conn, slots: c.slots}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
			c.tr.CloseIdleConnections()
		}
	}
}

type budgetConn struct {
	net.Conn
	slots chan struct{}
	once  sync.Once
}

func (b *budgetConn) Close() error {
	err := b.Conn.Close()
	b.once.Do(func() { <-b.slots })
	return err
}

// bindRow is one parsed solution line: up to maxVars (name, value) pairs,
// valid only during the row callback.
const maxVars = 4

type bindRow struct {
	n    int
	k, v [maxVars][]byte
}

func (r *bindRow) get(name string) []byte {
	for i := 0; i < r.n; i++ {
		if string(r.k[i]) == name {
			return r.v[i]
		}
	}
	return nil
}

// parseBind reads a {"bind":{...}} line. Plain lines (no escapes) take a
// scanner that allocates nothing; anything else goes through encoding/json.
func parseBind(line []byte, r *bindRow) bool {
	const pre = `{"bind":{`
	if bytes.HasPrefix(line, []byte(pre)) && bytes.IndexByte(line, '\\') < 0 {
		if parsePlainBind(line[len(pre):], r) {
			return true
		}
	}
	var v struct {
		Bind map[string]string `json:"bind"`
	}
	if json.Unmarshal(line, &v) != nil || v.Bind == nil || len(v.Bind) > maxVars {
		return false
	}
	keys := make([]string, 0, len(v.Bind))
	for k := range v.Bind {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r.n = 0
	for _, k := range keys {
		r.k[r.n], r.v[r.n] = []byte(k), []byte(v.Bind[k])
		r.n++
	}
	return true
}

func parsePlainBind(b []byte, r *bindRow) bool {
	r.n = 0
	str := func() ([]byte, bool) {
		if len(b) == 0 || b[0] != '"' {
			return nil, false
		}
		end := bytes.IndexByte(b[1:], '"')
		if end < 0 {
			return nil, false
		}
		s := b[1 : 1+end]
		b = b[2+end:]
		return s, true
	}
	for len(b) > 0 && b[0] != '}' {
		if r.n == maxVars {
			return false
		}
		k, ok := str()
		if !ok || len(b) == 0 || b[0] != ':' {
			return false
		}
		b = b[1:]
		v, ok := str()
		if !ok {
			return false
		}
		r.k[r.n], r.v[r.n] = k, v
		r.n++
		if len(b) > 0 && b[0] == ',' {
			b = b[1:]
		}
	}
	return bytes.HasPrefix(b, []byte("}}"))
}

// queryResult is what one POST /query returned.
type queryResult struct {
	rows      int
	bytes     int
	truncated bool
}

type queryTrailer struct {
	Done      bool   `json:"done"`
	Solutions int    `json:"solutions"`
	Truncated bool   `json:"truncated"`
	Error     string `json:"error"`
}

// query posts a BGP (with a row limit when limit > 0) and hands every
// solution row to onRow, which returns false for a row the oracle rejects.
// Any transport, status, framing or oracle failure is an error, and so is
// a truncated answer to a query without a limit.
func (c *client) query(ctx context.Context, base, bgp string, limit int, br *bufio.Reader, onRow func(*bindRow) bool) (queryResult, error) {
	var res queryResult
	body, _ := json.Marshal(struct {
		BGP   string `json:"bgp"`
		Limit int    `json:"limit,omitempty"`
	}{bgp, limit})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return res, fmt.Errorf("query %q: status %d: %s", bgp, resp.StatusCode, bytes.TrimSpace(msg))
	}
	br.Reset(resp.Body)
	var row bindRow
	var tr queryTrailer
	done, bad := false, false
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			rest, rerr := br.ReadBytes('\n')
			line, err = append(append([]byte(nil), line...), rest...), rerr
		}
		res.bytes += len(line)
		if len(line) > 0 {
			switch {
			case bytes.HasPrefix(line, []byte(`{"bind"`)):
				if done || !parseBind(line, &row) {
					return res, fmt.Errorf("query %q: malformed row %q", bgp, line)
				}
				res.rows++
				if !onRow(&row) {
					bad = true
				}
			case bytes.Contains(line, []byte(`"done"`)):
				if json.Unmarshal(line, &tr) != nil || !tr.Done {
					return res, fmt.Errorf("query %q: malformed trailer %q", bgp, line)
				}
				done = true
			case bytes.HasPrefix(line, []byte(`{"vars"`)):
			default:
				return res, fmt.Errorf("query %q: unexpected line %q", bgp, line)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
	}
	switch {
	case !done:
		return res, fmt.Errorf("query %q: stream ended without a trailer", bgp)
	case tr.Error != "" || (tr.Truncated && (limit == 0 || res.rows != limit)):
		return res, fmt.Errorf("query %q: trailer reports error=%q truncated=%v after %d rows", bgp, tr.Error, tr.Truncated, res.rows)
	case tr.Solutions != res.rows:
		return res, fmt.Errorf("query %q: trailer counts %d solutions, stream carried %d", bgp, tr.Solutions, res.rows)
	case bad:
		return res, fmt.Errorf("query %q: wrong answer (a row the oracle rejects)", bgp)
	}
	res.truncated = tr.Truncated
	return res, nil
}

// wireTriple is the /triples request's triple shape.
type wireTriple struct {
	S string `json:"subject"`
	P string `json:"predicate"`
	O string `json:"object"`
}

type mutateResponse struct {
	Added   int `json:"added"`
	Removed int `json:"removed"`
}

// mutate posts one /triples batch and returns the server's counts.
func (c *client) mutate(ctx context.Context, base string, add, remove []wireTriple) (mutateResponse, error) {
	var out mutateResponse
	body, _ := json.Marshal(map[string][]wireTriple{"add": add, "remove": remove})
	err := c.postJSON(ctx, base+"/triples", body, &out)
	return out, err
}

// postJSON posts body (nil for an empty POST) and decodes a 200 answer.
func (c *client) postJSON(ctx context.Context, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *client) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s %s: decoding %q: %w", req.Method, req.URL.Path, truncate(b, 200), err)
	}
	return nil
}

// getText fetches a plain-text body (the /metrics scrape).
func (c *client) getText(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", req.URL.Path, resp.StatusCode)
	}
	return string(b), err
}

// hashBody streams a GET response into a digest, for comparing snapshots
// without holding them.
func (c *client) hashBody(ctx context.Context, url string) (string, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("GET %s: status %d", req.URL.Path, resp.StatusCode)
	}
	h := newDigest()
	n, err := io.Copy(h, resp.Body)
	return h.sum(), n, err
}

func truncate(b []byte, n int) string {
	s := strings.TrimSpace(string(b))
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}
