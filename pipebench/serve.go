package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pcbl"
	"pcbl/internal/artifact"
	"pcbl/internal/core"
	"pcbl/internal/serve"
)

// server runs serve.Handler over a reopened artifact on a loopback
// listener, and keeps the generation the writer builds its next delta on.
type server struct {
	dir  string
	tr   *tracer
	h    *serve.Handler
	srv  *http.Server
	base string // http://127.0.0.1:port
	done chan error

	mu  sync.Mutex
	cur *core.Label // the generation last opened
	man *artifact.Manifest

	reloadSpan atomic.Int64 // span of the reload request being served
}

// startServer opens the artifact at dir and serves it.
func startServer(dir string, tr *tracer) (*server, error) {
	s := &server{dir: dir, tr: tr, done: make(chan error, 1)}
	l, epoch, err := s.open()
	if err != nil {
		return nil, err
	}
	s.h = serve.NewReloadableHandler(l, epoch, s.open)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// open reopens the artifact; the handler calls it on POST /v1/reload.
func (s *server) open() (*core.Label, int64, error) {
	id := s.tr.begin("artifact.open", int(s.reloadSpan.Load()), 0)
	l, m, err := artifact.Open(s.dir)
	s.tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	s.cur, s.man = l, m
	s.mu.Unlock()
	return l, m.Epoch, nil
}

// current is the generation last opened and its manifest.
func (s *server) current() (*core.Label, *artifact.Manifest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur, s.man
}

// ServeHTTP wraps the handler in a serve-layer span when tracing. The
// client passes its span and request id in headers.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.tr == nil {
		s.h.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get("X-Span"))
	req, _ := strconv.ParseInt(r.Header.Get("X-Request-Id"), 10, 64)
	id := s.tr.begin("serve."+strings.TrimPrefix(r.URL.Path, "/v1/"), parent, req)
	if r.URL.Path == "/v1/reload" {
		s.reloadSpan.Store(int64(id))
	}
	s.h.ServeHTTP(w, r)
	s.tr.end(id)
}

// stop closes the listener and every connection, and waits for Serve to
// return.
func (s *server) stop() {
	_ = s.srv.Close() // Serve's own error is collected below
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "pipebench: serve:", err)
	}
}

// spillStats is the /v1/stats read-path snapshot of the serving label.
type spillStats struct {
	Spilled      bool  `json:"spilled"`
	HotHits      int64 `json:"hot_hits"`
	FloatingHits int64 `json:"floating_hits"`
	RunLoads     int64 `json:"run_loads"`
}

func (s *server) stats(c *http.Client) (spillStats, error) {
	var st spillStats
	resp, err := c.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// newClient makes a keep-alive client for the writer and /v1/stats.
func newClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second}
}

// writer appends rows to the served CSV and folds them into the artifact,
// one round at a time: ReadCSVAppend, BuildDeltaLabel, MergeLabelArtifact,
// then POST /v1/reload.
type writer struct {
	srv     *server
	client  *http.Client
	in      *serveInput
	csvPath string
	engine  pcbl.EngineOptions
	gens    *generations
	tr      *tracer
	nextReq *atomic.Int64
	next    int // the chunk the next round appends
}

// round appends the next chunk and returns the time from append to
// acknowledged reload.
func (w *writer) round() (time.Duration, error) {
	d, err := w.apply(w.in.chunks[w.next])
	if err != nil {
		return 0, fmt.Errorf("update round %d: %w", w.next, err)
	}
	w.next++
	return d, nil
}

// apply appends chunk to the served CSV, folds it into the artifact and
// has the daemon reload it.
func (w *writer) apply(chunk []byte) (time.Duration, error) {
	start := time.Now()
	req := w.nextReq.Add(1)
	root := w.tr.begin("loadgen.update", 0, req)
	defer w.tr.end(root)
	if err := appendFile(w.csvPath, chunk); err != nil {
		return 0, err
	}
	base, man := w.srv.current()
	var delta *pcbl.Dataset
	var err error
	w.tr.do("dataset.read_append", root, req, func() {
		var f *os.File
		if f, err = os.Open(w.csvPath); err != nil {
			return
		}
		defer f.Close()
		delta, err = pcbl.ReadCSVAppend(f, base.Dataset(), pcbl.CSVOptions{SkipRows: man.TotalRows})
	})
	if err != nil {
		return 0, fmt.Errorf("read append: %w", err)
	}
	var dl *pcbl.Label
	w.tr.do("core.build_delta", root, req, func() { dl, err = pcbl.BuildDeltaLabel(delta, w.engine, w.in.labelAttrs...) })
	if err != nil {
		return 0, fmt.Errorf("build delta: %w", err)
	}
	w.tr.do("artifact.merge", root, req, func() { _, err = pcbl.MergeLabelArtifact(w.srv.dir, dl, man) })
	if err != nil {
		return 0, fmt.Errorf("merge: %w", err)
	}
	w.gens.merged.Add(1)
	hreq, err := http.NewRequest(http.MethodPost, w.srv.base+"/v1/reload", nil)
	if err != nil {
		return 0, err
	}
	if w.tr != nil {
		hreq.Header.Set("X-Span", strconv.Itoa(root))
		hreq.Header.Set("X-Request-Id", strconv.FormatInt(req, 10))
	}
	resp, err := w.client.Do(hreq)
	if err != nil {
		return 0, fmt.Errorf("reload: %w", err)
	}
	var res serve.ReloadResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || res.Epoch != man.Epoch+1 {
		return 0, fmt.Errorf("reload: %s epoch %d after %d (%v)", resp.Status, res.Epoch, man.Epoch, err)
	}
	w.gens.acked.Add(1)
	return time.Since(start), nil
}

// appendFile appends data to the file at path.
func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
