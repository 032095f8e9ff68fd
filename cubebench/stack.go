package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cube/client"
	"cube/internal/obs"
	"cube/internal/promtext"
	"cube/internal/server"
	"cube/internal/store"
)

// stack is one in-process deployment of the service: server.NewHandler
// with DefaultConfig limits and caches, an experiment store in its own
// directory, request logs sent to a discarding handler, served over
// loopback and reached through the public client package.
//
// server.Serve builds its handler internally and takes no wrapper, so the
// stack serves server.NewHandler from an http.Server carrying the same
// Config timeouts Serve applies. That leaves room for the one piece of
// instrumentation the benchmark adds: a timing wrapper around the handler,
// switched on only in the traced run.
type stack struct {
	cfg  *server.Config
	srv  *http.Server
	url  string
	hc   *http.Client
	done chan error
	once sync.Once
	err  error // from close

	timeHandler atomic.Bool // record server.handle spans
	mu          sync.Mutex
	handle      []time.Duration

	reqBytes, respBytes atomic.Int64 // HTTP bodies through the client transport
}

func startStack(dir string, conns int) (*stack, error) {
	cfg := server.DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	st, err := store.Open(dir, store.Options{Logger: cfg.Logger, Metrics: cfg.Metrics})
	if err != nil {
		return nil, err
	}
	cfg.Store = st
	s := &stack{cfg: cfg, done: make(chan error, 1)}
	h := server.NewHandler(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !s.timeHandler.Load() {
				h.ServeHTTP(w, r)
				return
			}
			t0 := time.Now()
			h.ServeHTTP(w, r)
			d := time.Since(t0)
			s.mu.Lock()
			s.handle = append(s.handle, d)
			s.mu.Unlock()
		}),
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       cfg.IdleTimeout,
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	s.hc = &http.Client{Transport: &countingTransport{
		next: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		req: &s.reqBytes, resp: &s.respBytes,
	}}
	return s, nil
}

// client returns a client of the stack that does not retry, so a refused
// or failed request shows up as a failure instead of a slow success.
func (s *stack) client() *client.Client {
	return client.New(s.url, client.WithHTTPClient(s.hc), client.WithMaxRetries(0))
}

// scrape reads the server's /metrics exposition.
func (s *stack) scrape(ctx context.Context) (promtext.Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return promtext.Parse(resp.Body)
}

// handleTimes returns and clears the recorded handler durations.
func (s *stack) handleTimes() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.handle
	s.handle = nil
	return out
}

// close shuts the server down, waits for it to stop, and drops the
// connections the client pooled. Later calls return the first's result.
func (s *stack) close() error {
	s.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.err = s.srv.Shutdown(ctx)
		if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && s.err == nil {
			s.err = serr
		}
		s.hc.CloseIdleConnections()
	})
	return s.err
}

// countingTransport counts request and response body bytes.
type countingTransport struct {
	next      http.RoundTripper
	req, resp *atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		t.req.Add(r.ContentLength)
	}
	resp, err := t.next.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: t.resp}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// removeAll deletes a work directory, ignoring a directory already gone.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "cubebench: cleanup:", err)
	}
}
