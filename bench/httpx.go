package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// loopback is an http.Server on a loopback port that the harness owns:
// close stops it and waits for the serve goroutine.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: listen: %w", err)
	}
	l := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

func (l *loopback) close() {
	l.srv.Close()
	<-l.done
}

// newClient returns a keep-alive client for one closed-loop caller.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		IdleConnTimeout:     30 * time.Second,
	}}
}

func closeClient(c *http.Client) {
	if t, ok := c.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// reply is what a harness client saw of one request.
type reply struct {
	status int
	body   []byte
	cache  string // X-Wtcpd-Cache
	wall   time.Duration
}

// do sends one request and reads the whole reply; wall covers both. In a
// traced run it is one client span, announced to the handler wrapper.
func do(c *http.Client, tr *tracer, parent int, name, reqID, method, url string, body []byte) (reply, error) {
	sp := tr.start(name, parent, reqID)
	defer tr.end(sp)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sp != noSpan {
		req.Header.Set(spanHeader, strconv.Itoa(sp)+"/"+reqID)
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: data, cache: resp.Header.Get("X-Wtcpd-Cache"), wall: time.Since(t0)}, nil
}

// spanFromHeader parses spanHeader; requests from untraced callers get
// a root span.
func spanFromHeader(r *http.Request) (parent int, reqID string) {
	v := r.Header.Get(spanHeader)
	if v == "" {
		return noSpan, ""
	}
	p, id, _ := strings.Cut(v, "/")
	n, err := strconv.Atoi(p)
	if err != nil {
		return noSpan, id
	}
	return n, id
}

// tracedHandler wraps a program handler (wtcpd's, the fleet
// coordinator's) in a server-side span per request, named
// "<layer> <path>", parented to the client span named in spanHeader.
// With a nil tracer it returns h itself, so the untraced run serves the
// program's handler bare.
func tracedHandler(tr *tracer, layer string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, reqID := spanFromHeader(r)
		path := r.URL.Path
		if strings.HasPrefix(path, "/v1/result/") {
			path = "/v1/result/{fp}"
		}
		sp := tr.start(layer+" "+path, parent, reqID)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// tracingTransport gives RPCs issued by program code (fleet workers) a
// client-side span and the header that parents the handler span to it.
type tracingTransport struct {
	tr     *tracer
	parent int
	layer  string
	base   http.RoundTripper
}

func (t *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	sp := t.tr.start(t.layer+" "+r.URL.Path, t.parent, "")
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.Itoa(sp)+"/")
	resp, err := t.base.RoundTrip(r)
	t.tr.end(sp)
	return resp, err
}
