package main

// The traced per-layer pass. Each layer is timed from outside through its
// public functions, inside a benchmark span of its own, and the program's
// own spans (job → worker → PE → chunk-generate/chunk-commit, upload-part,
// merge) are read back from the same trace.

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	kagen "repro"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/storage"
)

// layerRun is one traced run: the trace, the benchmark's root span, and
// the spec whose layers are measured.
type layerRun struct {
	env  *runEnv
	spec job.Spec
	dest string // destination root of the run's job directories
	// uploadProbe, for a workload not on S3, is a destination on the S3
	// stand-in that PE 0's shard is uploaded to, so that the upload
	// counters and upload-part spans measure this workload's bytes too.
	uploadProbe string
	// serveSpec and serveRounds define the serve layer's two-client loop.
	serveSpec   func(k int) job.Spec
	serveRounds int

	tr      *obs.Trace // the current round's trace
	root    obs.Span
	round   int
	samples map[string][]float64 // one value per round
	units   map[string]string
}

// span opens a benchmark span under the round's root span and makes it
// the default parent, so that spans the program starts without a parent
// (upload parts, merge, worker) nest under it.
func (l *layerRun) span(name string) obs.Span {
	sp := l.tr.Start("bench", "bench-"+name, obs.LaneWorker, l.root)
	l.tr.SetDefaultParent(sp)
	return sp
}

// set records a round's value of a per-layer metric.
func (l *layerRun) set(name, unit string, v float64) {
	l.samples[name] = append(l.samples[name], v)
	l.units[name] = unit
}

// run measures rounds of every layer until the run's time is spent and
// reports each metric's median over the rounds. The last round's trace
// is written out and summarized.
func (l *layerRun) run() error {
	// Warm-up, untraced and untimed.
	warm := storage.Join(l.dest, "warmup")
	err := job.Init(warm, l.spec)
	if err == nil {
		err = runAll(warm, l.spec, job.RunOptions{})
	}
	if l.env.op("warm-up run", err) != nil {
		return err
	}
	if err := removeDest(warm); err != nil {
		return err
	}
	err = l.env.rounds(func(i int) error {
		l.round = i
		l.tr = obs.NewTrace(obs.DefaultTraceCap)
		l.root = l.tr.Start("bench", "bench-"+l.env.name, obs.LaneWorker, obs.Span{})
		if err := l.measure(); err != nil {
			return err
		}
		if err := l.measureServe(); err != nil {
			return err
		}
		l.root.End()
		l.traceMetrics()
		return nil
	})
	if err != nil {
		return err
	}
	for name, xs := range l.samples {
		l.env.res.Metrics[name] = metric{Value: median(xs), Unit: l.units[name]}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d traced rounds\n", l.round+1)
	return l.writeTrace()
}

// reps repeats a short measurement and returns the median seconds.
func reps(n int, fn func() error) (float64, error) {
	var xs []float64
	for range n {
		s, err := timed(fn)
		if err != nil {
			return 0, err
		}
		xs = append(xs, s)
	}
	return median(xs), nil
}

// countSink counts the edges a stream delivers.
type countSink struct{ edges uint64 }

func (s *countSink) Begin(n, pes uint64) error { return nil }
func (s *countSink) Batch(pe uint64, edges []kagen.Edge) error {
	s.edges += uint64(len(edges))
	return nil
}
func (s *countSink) EndPE(pe uint64) error { return nil }
func (s *countSink) Close() error          { return nil }

// measure runs every layer measurement of the spec on dest. The serve
// layer is measured apart, by the caller.
func (l *layerRun) measure() error {
	env, spec := l.env, l.spec
	edges := expectedEdges(spec)
	format := spec.ShardFormat()

	// Untraced generate: the base of trace.overhead and job.overhead_s,
	// and, on S3, the upload counters.
	plain := storage.Join(l.dest, fmt.Sprintf("plain%d", l.round))
	if err := env.op("init", job.Init(plain, spec)); err != nil {
		return err
	}
	storage.ResetUploadStats()
	untracedS, err := timed(func() error { return runAll(plain, spec, job.RunOptions{}) })
	if env.op("run", err) != nil {
		return err
	}
	if l.uploadProbe == "" {
		l.uploadStats()
	}

	// Traced generate.
	traced := storage.Join(l.dest, fmt.Sprintf("traced%d", l.round))
	if err := env.op("init", job.Init(traced, spec)); err != nil {
		return err
	}
	sp := l.span("generate")
	obs.SetActive(l.tr)
	tracedS, err := timed(func() error { return runAll(traced, spec, job.RunOptions{Trace: l.tr}) })
	obs.SetActive(nil)
	sp.End()
	if env.op("traced run", err) != nil {
		return err
	}
	l.set("trace.overhead", "x", tracedS/untracedS)

	// Sampler: every chunk on this goroutine, counting only.
	streamer, err := spec.Streamer()
	if err != nil {
		return err
	}
	sp = l.span("sampler")
	var sampled uint64
	samplerS, err := timed(func() error {
		for c := uint64(0); c < streamer.PEs(); c++ {
			if err := streamer.StreamChunk(c, func(kagen.Edge) { sampled++ }); err != nil {
				return err
			}
		}
		return nil
	})
	sp.End()
	if env.op("sampler", err) != nil {
		return err
	}
	if err := env.op("sampler edge count", countIs("sampler", sampled, edges)); err != nil {
		return err
	}
	l.set("sampler.edges_per_s", "edges/s", float64(edges)/samplerS)

	// PE pipeline: the same chunks at GOMAXPROCS into a counting sink.
	sp = l.span("pe")
	cs := &countSink{}
	peS, err := timed(func() error { return kagen.StreamChunksFrom(streamer, 0, streamer.PEs(), 0, 0, cs) })
	sp.End()
	if env.op("pe stream", err) != nil {
		return err
	}
	if err := env.op("pe edge count", countIs("pe", cs.edges, edges)); err != nil {
		return err
	}
	l.set("pe.edges_per_s", "edges/s", float64(edges)/peS)
	l.set("pe.speedup", "x", samplerS/peS)
	l.set("job.overhead_s", "s", untracedS-peS)

	if err := l.measureFormat(streamer, format); err != nil {
		return err
	}
	if err := l.measureStorage(plain, format); err != nil {
		return err
	}

	// Verify.
	sp = l.span("verify")
	var vr *job.VerifyResult
	verifyS, err := timed(func() (err error) { vr, err = verifyAll(plain, spec); return err })
	sp.End()
	if env.op("verify", err) != nil {
		return err
	}
	l.set("job.verify_chunk_s", "s", verifyS/float64(vr.ChunksChecked))
	l.set("job.verify_chunks_checked", "count", float64(vr.ChunksChecked))

	// Merge of the traced job: the program's merge span lands on the
	// active trace, under the benchmark's merge span.
	sp = l.span("merge")
	obs.SetActive(l.tr)
	d1, err := mergeDigest(traced)
	obs.SetActive(nil)
	sp.End()
	if env.op("merge", err) != nil {
		return err
	}
	d2, err := mergeDigest(plain)
	if err == nil {
		err = sameDigest("traced and untraced merges", d1, d2)
	}
	if env.op("merge comparison", err) != nil {
		return err
	}
	if err := removeDest(plain); err != nil {
		return err
	}
	return removeDest(traced)
}

// formatEdges is how many edges the encoders are timed over.
const formatEdges = 1 << 18

// measureFormat times the edge encoders over the instance's first
// formatEdges edges, captured once.
func (l *layerRun) measureFormat(streamer kagen.Streamer, format kagen.Format) error {
	var captured []kagen.Edge
	for c := uint64(0); c < streamer.PEs() && len(captured) < formatEdges; c++ {
		if err := streamer.StreamChunk(c, func(e kagen.Edge) { captured = append(captured, e) }); err != nil {
			return err
		}
	}
	captured = captured[:min(len(captured), formatEdges)]
	plainFormat, gzFormat := format, format
	if format.Compressed() {
		plainFormat = kagen.Format(strings.TrimSuffix(string(format), ".gz"))
	} else {
		gzFormat = kagen.Format(string(format) + ".gz")
	}
	encode := func(f kagen.Format, w io.Writer) error {
		sink := kagen.NewFormatSink(w, f)
		err := sink.Begin(streamer.N(), l.spec.TotalChunks())
		for i := 0; i < len(captured) && err == nil; i += 8192 {
			err = sink.Batch(0, captured[i:min(i+8192, len(captured))])
		}
		if err == nil {
			err = sink.EndPE(0)
		}
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
		return err
	}
	var plainBytes digestWriter
	if err := l.env.op("encode", encode(plainFormat, &plainBytes)); err != nil {
		return err
	}
	sp := l.span("format")
	encodeS, err := reps(3, func() error { return encode(plainFormat, io.Discard) })
	var gzS float64
	if err == nil {
		gzS, err = reps(3, func() error { return encode(gzFormat, io.Discard) })
	}
	sp.End()
	if l.env.op("format", err) != nil {
		return err
	}
	l.set("format.encode_bytes_per_s", "B/s", float64(plainBytes.d.n)/encodeS)
	l.set("format.gzip_bytes_per_s", "B/s", float64(plainBytes.d.n)/gzS)
	return nil
}

// measureStorage times the storage layer on the workload's backend: a
// shard written from pre-encoded chunk bytes, full reads of every shard,
// chunk-sized ranged reads, and the decoder over one shard in memory.
func (l *layerRun) measureStorage(dir string, format kagen.Format) error {
	env, spec := l.env, l.spec
	store, err := storage.Resolve(dir)
	if err != nil {
		return err
	}
	m, err := job.ReadManifest(job.ManifestPath(dir, 0), spec)
	if err != nil {
		return err
	}
	pe0 := m.PEs[0]
	path0 := job.ShardPath(dir, pe0.PE, format)
	shard, err := store.Get(path0)
	if err != nil {
		return err
	}

	// Decode one shard held in memory (decompressing it first, as merge
	// does).
	sp := l.span("decode")
	var decoded uint64
	decodeS, err := reps(3, func() error {
		decoded = 0
		var r io.Reader = bytes.NewReader(shard)
		if format.Compressed() {
			gz, err := gzip.NewReader(r)
			if err != nil {
				return err
			}
			defer gz.Close()
			r = gz
		}
		count := func(u, v uint64) error { decoded++; return nil }
		if format.Binary() {
			return graph.StreamEdgeListBinary(r, nil, count)
		}
		return graph.StreamEdgeListText(r, nil, count)
	})
	sp.End()
	if env.op("decode", err) != nil {
		return err
	}
	if err := env.op("decode edge count", countIs("decode", decoded, pe0.Edges)); err != nil {
		return err
	}
	l.set("graph.decode_edges_per_s", "edges/s", float64(decoded)/decodeS)

	// Write: the header and every chunk of PE 0 as committed segments;
	// segment i is shard[bounds[i]:bounds[i+1]].
	bounds := []int64{0, pe0.HeaderEnd}
	for _, c := range pe0.Chunks {
		bounds = append(bounds, c.End)
	}
	segments := make([][]byte, len(bounds)-1)
	digests := make([][32]byte, len(segments))
	for i := range segments {
		segments[i] = shard[bounds[i]:bounds[i+1]]
		digests[i] = sha256.Sum256(segments[i])
	}
	probe := storage.Join(l.dest, "probe", "shard")
	var commits []float64
	sp = l.span("storage-write")
	obs.SetActive(l.tr)
	writeS, err := timed(func() error { return writeShard(store, probe, segments, digests, &commits) })
	obs.SetActive(nil)
	sp.End()
	if env.op("storage write", err) != nil {
		return err
	}
	written, err := store.Get(probe)
	if err == nil && !bytes.Equal(written, shard) {
		err = fmt.Errorf("shard written by the probe differs from the job's shard")
	}
	if env.op("storage write check", err) != nil {
		return err
	}
	l.set("storage.write_bytes_per_s", "B/s", float64(len(shard))/writeS)
	l.set("storage.commit_s", "s", median(commits))

	// Sequential reads of every shard of the job.
	sp = l.span("storage-read")
	var read int64
	readS, err := timed(func() error {
		read = 0
		for pe := uint64(0); pe < spec.PEs; pe++ {
			f, err := store.Open(job.ShardPath(dir, pe, format))
			if err != nil {
				return err
			}
			n, err := io.Copy(io.Discard, f)
			f.Close()
			if err != nil {
				return err
			}
			read += n
		}
		return nil
	})
	sp.End()
	if env.op("storage read", err) != nil {
		return err
	}
	l.set("storage.read_bytes_per_s", "B/s", float64(read)/readS)

	// Ranged reads of single chunks, verify's access pattern.
	sp = l.span("storage-ranged-read")
	f, err := store.Open(path0)
	if env.op("storage open", err) != nil {
		sp.End()
		return err
	}
	var ranged []float64
	for i := 1; i < len(segments); i++ {
		buf := make([]byte, len(segments[i]))
		t := time.Now()
		_, err := f.ReadAt(buf, bounds[i])
		ranged = append(ranged, time.Since(t).Seconds())
		if err == nil && !bytes.Equal(buf, segments[i]) {
			err = fmt.Errorf("ranged read of chunk %d returned other bytes", i-1)
		}
		if env.op("ranged read", err) != nil {
			f.Close()
			sp.End()
			return err
		}
	}
	f.Close()
	sp.End()
	l.set("storage.ranged_read_s", "s", median(ranged))
	if err := removeDest(storage.Join(l.dest, "probe")); err != nil {
		return err
	}
	if l.uploadProbe == "" {
		return nil
	}

	// Upload PE 0's shard to the S3 stand-in.
	s3, err := storage.Resolve(l.uploadProbe)
	if err != nil {
		return err
	}
	storage.ResetUploadStats()
	sp = l.span("storage-upload")
	obs.SetActive(l.tr)
	err = writeShard(s3, l.uploadProbe, segments, digests, nil)
	obs.SetActive(nil)
	sp.End()
	if env.op("storage upload", err) != nil {
		return err
	}
	l.uploadStats()
	return removeDest(l.uploadProbe)
}

// uploadStats records the storage layer's upload counters.
func (l *layerRun) uploadStats() {
	up := storage.UploadStats()
	l.set("storage.parts_uploaded", "count", float64(up.PartsUploaded))
	l.set("storage.bytes_uploaded", "B", float64(up.BytesUploaded))
	l.set("storage.max_parts_in_flight", "count", float64(up.MaxInFlight))
	l.set("storage.part_retries", "count", float64(up.PartRetries))
}

// writeShard writes segments as one shard with a Commit per segment,
// appending each Commit's wall time to commits when it is not nil.
func writeShard(store storage.Backend, dest string, segments [][]byte, digests [][32]byte, commits *[]float64) error {
	sw, err := store.CreateShard(dest)
	if err != nil {
		return err
	}
	for i, s := range segments {
		if _, err := sw.Write(s); err != nil {
			sw.Abort()
			return err
		}
		t := time.Now()
		if _, err := sw.Commit(digests[i]); err != nil {
			sw.Abort()
			return err
		}
		if commits != nil {
			*commits = append(*commits, time.Since(t).Seconds())
		}
	}
	if err := sw.Finalize(); err != nil {
		return err
	}
	return sw.Close()
}

// countIs requires a count to match what the spec defines.
func countIs(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s counted %d edges, want %d", what, got, want)
	}
	return nil
}

// traceMetrics reads the program's spans back from the round's trace
// and records their total and self times.
func (l *layerRun) traceMetrics() {
	for _, name := range []string{"chunk-generate", "chunk-commit", "upload-part", "merge"} {
		a := spanTimes(l.tr.Events())[name]
		key := "trace." + strings.ReplaceAll(name, "-", "_")
		l.set(key+"_s", "s", a.total)
		l.set(key+"_self_s", "s", a.self)
	}
}

type spanAgg struct {
	count       int
	total, self float64
}

// spanTimes sums the duration and the self time (duration minus the part
// its child spans cover) of the spans of each name.
func spanTimes(events []obs.Event) map[string]spanAgg {
	children := map[uint64][]obs.Event{}
	for _, e := range events {
		if e.Parent != 0 {
			children[e.Parent] = append(children[e.Parent], e)
		}
	}
	byName := map[string]spanAgg{}
	for _, e := range events {
		a := byName[e.Name]
		a.count++
		a.total += float64(e.Dur) / 1e9
		a.self += float64(e.Dur-covered(e, children[e.ID])) / 1e9
		byName[e.Name] = a
	}
	return byName
}

// writeTrace prints the last round's per-span table and writes its trace
// as Chrome trace JSON beside the results, checking that it parses with
// every span inside its parent.
func (l *layerRun) writeTrace() error {
	byName := spanTimes(l.tr.Events())
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].total > byName[names[j]].total })
	fmt.Fprintf(os.Stderr, "\nlast round's spans:\n%-28s %7s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(os.Stderr, "%-28s %7d %12.6f %12.6f\n", n, a.count, a.total, a.self)
	}
	fmt.Fprintf(os.Stderr, "trace.overhead %.4f (traced / untraced generate, median of %d rounds)\n\n",
		l.env.res.Metrics["trace.overhead"].Value, l.round+1)
	if d := l.tr.Dropped(); d > 0 {
		return l.env.op("trace", fmt.Errorf("%d spans dropped", d))
	}
	path := filepath.Join(l.env.results, fmt.Sprintf("%s-seed%d-trace.json", l.env.name, l.env.seed))
	var buf bytes.Buffer
	if err := l.tr.WriteJSON(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	return l.env.op("trace nesting", checkNesting(buf.Bytes()))
}

// covered is the length of the part of e's interval its children cover.
func covered(e obs.Event, kids []obs.Event) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, e.Start), min(k.Start+k.Dur, e.Start+e.Dur)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, math.MinInt64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// checkNesting parses Chrome trace JSON and requires every span with a
// parent to lie inside that parent's interval.
func checkNesting(b []byte) error {
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		return fmt.Errorf("trace JSON: %w", err)
	}
	type iv struct{ a, b int64 }
	spans := map[string]iv{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" {
			spans[fmt.Sprint(e.Args["id"])] = iv{e.TS, e.TS + e.Dur}
		}
	}
	nested := 0
	for _, e := range tr.TraceEvents {
		p, ok := e.Args["parent"]
		if e.Ph != "X" || !ok {
			continue
		}
		par, ok := spans[fmt.Sprint(p)]
		if !ok {
			return fmt.Errorf("span %s has unknown parent %v", e.Name, p)
		}
		if e.TS < par.a || e.TS+e.Dur > par.b {
			return fmt.Errorf("span %s [%d, %d] is not inside its parent [%d, %d]", e.Name, e.TS, e.TS+e.Dur, par.a, par.b)
		}
		nested++
	}
	if nested == 0 {
		return fmt.Errorf("trace has no nested span")
	}
	return nil
}

// queueWait reads kagen_queue_wait_seconds' sum / count from /metrics.
func (s *server) queueWait() (float64, error) {
	resp, err := s.c.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var total, count float64
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case "kagen_queue_wait_seconds_sum":
			total, err = strconv.ParseFloat(f[1], 64)
			found++
		case "kagen_queue_wait_seconds_count":
			count, err = strconv.ParseFloat(f[1], 64)
			found++
		}
		if err != nil {
			return 0, err
		}
	}
	if found != 2 || count == 0 {
		return 0, fmt.Errorf("/metrics has no kagen_queue_wait_seconds samples")
	}
	return total / count, nil
}

func newLayerRun(env *runEnv, spec job.Spec, dest string, serveSpec func(k int) job.Spec, serveRounds int) *layerRun {
	return &layerRun{env: env, spec: spec, dest: dest, serveSpec: serveSpec, serveRounds: serveRounds,
		samples: map[string][]float64{}, units: map[string]string{}}
}

// measureServe runs rounds of the two-client loop against a fresh server
// (after one warm-up round) and records the serve layer's latencies.
func (l *layerRun) measureServe() error {
	r, err := startServeRun(l.env, l.serveSpec)
	if err != nil {
		return err
	}
	defer r.s.stop()
	sp := l.span("serve")
	defer sp.End()
	for i := 0; i <= l.serveRounds; i++ {
		xs := r.round(i > 0)
		r.check(xs, i > 0)
		if err := r.forget(xs); err != nil {
			return err
		}
	}
	wait, err := r.s.queueWait()
	if l.env.op("queue wait", err) != nil {
		return err
	}
	l.set("serve.submit_s", "s", median(r.submit))
	l.set("serve.fresh_result_s", "s", median(r.freshResult))
	l.set("serve.cached_result_s", "s", median(r.cachedResult))
	l.set("serve.queue_wait_s", "s", wait)
	return nil
}

func (w *jobWorkload) layers(env *runEnv) error {
	r, err := w.start(env)
	if err != nil {
		return err
	}
	defer r.stop()
	// The job workloads bypass serve; its layer is measured here on the
	// workload's model and format at a sixteenth of the size, so that
	// every workload reports every per-layer figure.
	probe := func(k int) job.Spec {
		s := r.spec
		s.Seed = env.seed*1_000_003 + uint64(k) + 1
		s.M /= 16
		if s.N > 0 {
			s.N /= 16
		}
		return s
	}
	l := newLayerRun(env, r.spec, r.root, probe, 1)
	if !w.s3 {
		stop, err := startS3()
		if err != nil {
			return err
		}
		defer stop()
		l.uploadProbe = "s3://" + s3Bucket + fmt.Sprintf("/%s-%d/upload", env.name, os.Getpid())
	}
	return l.run()
}

func (w *serveWorkload) layers(env *runEnv) error {
	abs, err := filepath.Abs(filepath.Join(env.work, "jobs"))
	if err != nil {
		return err
	}
	probe := func(k int) job.Spec { return w.spec(env.seed, k+1) }
	l := newLayerRun(env, w.spec(env.seed, 0), "file://"+abs, probe, 3)
	stop, err := startS3()
	if err != nil {
		return err
	}
	defer stop()
	l.uploadProbe = "s3://" + s3Bucket + fmt.Sprintf("/%s-%d/upload", env.name, os.Getpid())
	return l.run()
}
