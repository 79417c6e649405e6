package main

// The serve workload: kagen serve in-process on a loopback listener,
// default serve.Config, a data directory that starts empty, and a closed
// loop of two clients over HTTP.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/job"
	"repro/internal/serve"
)

const (
	serveClients = 2
	// pollEvery is the status polling interval: fine against a job of
	// hundreds of milliseconds, coarse enough to leave the CPUs to it.
	pollEvery = 5 * time.Millisecond
	// restarts is how often set-up restarts the server.
	restarts = 15
)

type serveWorkload struct{}

func rdg2dTextServe() *serveWorkload { return &serveWorkload{} }

// spec is the fresh spec of request k of a run: a new instance seed per
// request, all derived from the workload seed.
func (w *serveWorkload) spec(seed uint64, k int) job.Spec {
	return job.Spec{Model: "rdg2d", N: 1 << 16, Seed: seed*1_000_003 + uint64(k),
		PEs: 8, ChunksPerPE: 4, Format: "text"}.Normalized()
}

// server is serve.Server behind a loopback HTTP listener.
type server struct {
	cfg  serve.Config
	srv  *serve.Server
	http *http.Server
	done chan error
	base string
	c    *http.Client
}

func startServer(dir string) (*server, error) {
	s := &server{cfg: serve.Config{Dir: dir}, done: make(chan error, 1), c: &http.Client{}}
	srv, err := serve.New(s.cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.srv = srv
	s.http = &http.Server{Handler: srv.Handler()}
	s.base = "http://" + ln.Addr().String()
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop closes the listener and the server and waits for both.
func (s *server) stop() {
	s.http.Close()
	<-s.done
	s.c.CloseIdleConnections()
	if s.srv != nil {
		s.srv.Close()
	}
}

// do sends one request and decodes a JSON answer into out (if non-nil),
// requiring the given status code.
func (s *server) do(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(b))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// result reads GET /jobs/{id}/result to the end into w.
func (s *server) result(id string, w io.Writer) error {
	resp, err := s.c.Get(s.base + "/jobs/" + id + "/result")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET result: status %d", resp.StatusCode)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// awaitComplete polls a job's status until it is complete.
func (s *server) awaitComplete(id string) (serve.JobStatus, error) {
	for {
		var st serve.JobStatus
		if err := s.do(http.MethodGet, "/jobs/"+id, nil, http.StatusOK, &st); err != nil {
			return st, err
		}
		switch st.State {
		case serve.StateComplete:
			return st, nil
		case serve.StateQueued, serve.StateRunning:
			time.Sleep(pollEvery)
		default:
			return st, fmt.Errorf("job %s is %s: %s", id, st.State, st.Error)
		}
	}
}

// exchange is one client's pair of requests in a round: a fresh spec,
// then a re-submit of the same spec once it completed.
type exchange struct {
	spec   job.Spec
	id     string
	edges  uint64
	result []byte // the fresh result
	cached digest // the cached result

	submitS, completeS, freshS, cachedS, cachedSubmitS float64
	freshErr, cachedErr                                error
}

// failed reports whether either request of the exchange failed.
func (x *exchange) failed() bool { return x.freshErr != nil || x.cachedErr != nil }

func (s *server) fresh(x *exchange) error {
	w := startWatch()
	var st serve.JobStatus
	if err := s.do(http.MethodPost, "/jobs", x.spec, http.StatusAccepted, &st); err != nil {
		return err
	}
	x.submitS = w.seconds()
	x.id = st.ID
	st, err := s.awaitComplete(x.id)
	if err != nil {
		return err
	}
	x.completeS = w.seconds()
	x.edges = st.Edges
	var buf bytes.Buffer
	if err := s.result(x.id, &buf); err != nil {
		return err
	}
	x.freshS = w.seconds()
	x.result = buf.Bytes()
	return nil
}

func (s *server) cachedResubmit(x *exchange) error {
	w := startWatch()
	var st serve.JobStatus
	if err := s.do(http.MethodPost, "/jobs", x.spec, http.StatusOK, &st); err != nil {
		return err
	}
	x.cachedSubmitS = w.seconds()
	if !st.Cached || st.State != serve.StateComplete || st.ID != x.id {
		return fmt.Errorf("re-submit of %s answered %s (cached %v), want a cache hit", x.id[:12], st.State, st.Cached)
	}
	var dw digestWriter
	if err := s.result(x.id, &dw); err != nil {
		return err
	}
	x.cachedS = w.seconds()
	x.cached = dw.d
	return nil
}

// serveRun collects one run's samples.
type serveRun struct {
	env  *runEnv
	s    *server
	dir  string
	spec func(k int) job.Spec // the fresh spec of request k
	next int                  // index of the next fresh spec

	loopS                                 float64   // wall time of the closed loop, rounds only
	rss                                   []float64 // peak RSS of each round
	requests                              int
	generate, merge, verify, bytesPerEdge []float64
	submit, freshResult, cachedResult     []float64
}

// round runs one closed-loop round: every client does a fresh request and
// a cached re-submit, and the round ends when both are done. Only the
// requests are timed; the checks and the verify pass follow the round.
func (r *serveRun) round(record bool) []*exchange {
	xs := make([]*exchange, serveClients)
	for i := range xs {
		xs[i] = &exchange{spec: r.spec(r.next)}
		r.next++
	}
	var wg sync.WaitGroup
	w := startWatch()
	for _, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if x.freshErr = r.s.fresh(x); x.freshErr == nil {
				x.cachedErr = r.s.cachedResubmit(x)
			}
		}()
	}
	wg.Wait()
	if record {
		r.loopS += w.seconds()
	}
	for _, x := range xs {
		if r.env.op("fresh request", x.freshErr) != nil {
			r.env.op("cached request", errors.New("fresh request failed"))
			continue
		}
		if record {
			r.requests++
		}
		if r.env.op("cached request", x.cachedErr) != nil {
			continue
		}
		if record {
			r.requests++
			r.generate = append(r.generate, float64(x.edges)/x.completeS)
			r.merge = append(r.merge, float64(x.edges)/x.cachedS)
			r.submit = append(r.submit, x.submitS, x.cachedSubmitS)
			r.freshResult = append(r.freshResult, x.freshS)
			r.cachedResult = append(r.cachedResult, x.cachedS)
		}
	}
	return xs
}

// check runs the independent checks on a round's results, times one
// verify pass through serve, and records the stored bytes per edge.
func (r *serveRun) check(xs []*exchange, record bool) {
	for i, x := range xs {
		if x.failed() {
			// Count the follow-up operations so every round attempts the
			// same number.
			for range 3 {
				r.env.op("check", errors.New("request failed"))
			}
			if i == 0 {
				r.env.op("verify", errors.New("request failed"))
			}
			continue
		}
		if err := r.checkExchange(x); err != nil {
			r.env.wrong("output check of "+x.id[:12], err)
		} else {
			r.env.op("output check", nil)
		}
		stored, err := storedBytes(filepath.Join(r.dir, x.id), x.spec)
		if r.env.op("stored bytes", err) == nil && record {
			r.bytesPerEdge = append(r.bytesPerEdge, float64(stored)/float64(x.edges))
		}
		// job.Merge of the same spec must give the served bytes.
		d, err := mergeDigest(filepath.Join(r.dir, x.id))
		if err == nil {
			err = sameDigest("job.Merge of "+x.id[:12], d, digestOf(x.result))
		}
		if err != nil {
			r.env.wrong("merge comparison", err)
		} else {
			r.env.op("merge comparison", nil)
		}
		if i == 0 {
			s, err := timed(func() error { return r.s.verify(x) })
			if r.env.op("verify", err) == nil && record {
				r.verify = append(r.verify, float64(x.edges)/s)
			}
		}
	}
}

func (r *serveRun) checkExchange(x *exchange) error {
	if want := expectedEdges(x.spec); x.edges != want {
		return fmt.Errorf("status reports %d edges, want %d", x.edges, want)
	}
	if err := checkStream(bytes.NewReader(x.result), x.spec.Format, checkerFor(x.spec)); err != nil {
		return err
	}
	return sameDigest("cached result", x.cached, digestOf(x.result))
}

// verify runs POST /jobs/{id}/verify?all=true and requires a clean pass
// over every chunk.
func (s *server) verify(x *exchange) error {
	var vr serve.VerifyResponse
	if err := s.do(http.MethodPost, "/jobs/"+x.id+"/verify?all=true", nil, http.StatusOK, &vr); err != nil {
		return err
	}
	if vr.Integrity == nil || vr.Integrity.State != "verified" || vr.Integrity.Faults != 0 {
		return fmt.Errorf("verify of %s: %+v", x.id[:12], vr.Integrity)
	}
	if uint64(vr.Integrity.ChunksChecked) != x.spec.TotalChunks() {
		return fmt.Errorf("verify checked %d chunks, want %d", vr.Integrity.ChunksChecked, x.spec.TotalChunks())
	}
	return nil
}

// forget deletes a round's jobs through the API, so the data directory
// holds a fixed number of jobs whatever the round count.
func (r *serveRun) forget(xs []*exchange) error {
	for _, x := range xs {
		if x.id == "" {
			continue
		}
		if err := r.s.do(http.MethodDelete, "/jobs/"+x.id, nil, http.StatusOK, nil); err != nil {
			return err
		}
	}
	return nil
}

func startServeRun(env *runEnv, spec func(k int) job.Spec) (*serveRun, error) {
	dir := filepath.Join(env.work, "serve")
	s, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	return &serveRun{env: env, s: s, dir: dir, spec: spec}, nil
}

func (w *serveWorkload) e2e(env *runEnv) error {
	r, err := startServeRun(env, func(k int) job.Spec { return w.spec(env.seed, k) })
	if err != nil {
		return err
	}
	defer r.s.stop()

	warm := r.round(false)
	for _, x := range warm {
		if x.failed() {
			return fmt.Errorf("warm-up requests: %w", errors.Join(x.freshErr, x.cachedErr))
		}
	}
	r.check(warm, false)
	prev := warm
	rss := startRSSSampler()
	defer rss.close()
	rss.peak()
	err = env.rounds(func(int) error {
		xs := r.round(true)
		r.check(xs, true)
		r.rss = append(r.rss, rss.peak())
		err := r.forget(prev)
		prev = xs
		return err
	})
	if err != nil {
		return err
	}

	// Set-up: restart the server over the data directory, which now holds
	// the last round's completed jobs, and time the startup scan.
	r.s.srv.Close()
	r.s.srv = nil
	var setup []float64
	for range restarts {
		var srv *serve.Server
		s, err := timed(func() (err error) { srv, err = serve.New(r.s.cfg); return err })
		if r.env.op("restart", err) != nil {
			continue
		}
		srv.Close()
		setup = append(setup, s)
	}

	for _, m := range []struct {
		name, unit string
		xs         []float64
	}{
		{"setup_s", "s", setup},
		{"generate_edges_per_s", "edges/s", r.generate},
		{"verify_edges_per_s", "edges/s", r.verify},
		{"merge_edges_per_s", "edges/s", r.merge},
		{"stored_bytes_per_edge", "B/edge", r.bytesPerEdge},
		{"peak_rss_mb", "MiB", r.rss},
	} {
		if err := env.setMedian(m.name, m.unit, m.xs); err != nil {
			return err
		}
	}
	env.set("jobs_per_s", "jobs/s", float64(r.requests)/r.loopS)
	fmt.Fprintf(os.Stderr, "perfbench: %d requests in %.2fs of loop; samples: fresh %d, cached %d, verify %d\n",
		r.requests, r.loopS, len(r.generate), len(r.merge), len(r.verify))
	return nil
}
