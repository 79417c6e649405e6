package main

// The two job workloads: a spec goes through job.Init, job.Run,
// job.Verify{All} and job.Merge on one storage backend, round after
// round, each round on a fresh destination.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/job"
	"repro/internal/storage"
)

// setupReps is how many job.Inits a round times for setup_s.
const setupReps = 10

// jobWorkload is a spec, the backend it is stored on, and how often the
// short stages repeat per round so that each reports a median of enough
// samples.
type jobWorkload struct {
	spec       func(seed uint64) job.Spec
	s3         bool // on the S3 stand-in; otherwise on a file:// directory
	verifyReps int
	mergeReps  int
}

func rmatBinaryFile() *jobWorkload {
	return &jobWorkload{
		spec: func(seed uint64) job.Spec {
			return job.Spec{Model: "rmat", Scale: 20, M: 1 << 21, Seed: seed,
				PEs: 8, ChunksPerPE: 8, Format: "binary"}
		},
		verifyReps: 1, mergeReps: 4,
	}
}

func gnmGzipS3() *jobWorkload {
	return &jobWorkload{
		spec: func(seed uint64) job.Spec {
			return job.Spec{Model: "gnm_undirected", N: 5 << 17, M: 5 << 17, Seed: seed,
				PEs: 1, ChunksPerPE: 32, Format: "binary.gz"}
		},
		s3:         true,
		verifyReps: 2, mergeReps: 1,
	}
}

// jobRun is one run's state: where its job directories go and the
// samples its rounds collect.
type jobRun struct {
	w     *jobWorkload
	env   *runEnv
	spec  job.Spec
	root  string // destination under which each round's job directory lives
	stop  func() // stops the S3 stand-in, if any
	edges uint64 // edges of the instance, from the warm-up's manifests
	want  digest // the merged output of the warm-up round

	setup, generate, verify, merge, cycle, bytesPerEdge, rss []float64
}

func (w *jobWorkload) start(env *runEnv) (*jobRun, error) {
	r := &jobRun{w: w, env: env, spec: w.spec(env.seed).Normalized(), stop: func() {}}
	if w.s3 {
		stop, err := startS3()
		if err != nil {
			return nil, err
		}
		r.stop = stop
		r.root = "s3://" + s3Bucket + "/" + fmt.Sprintf("%s-%d", env.name, os.Getpid())
	} else {
		abs, err := filepath.Abs(filepath.Join(env.work, "jobs"))
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(abs, 0o755); err != nil {
			return nil, err
		}
		r.root = "file://" + abs
	}
	return r, nil
}

func (r *jobRun) dir(name string) string { return storage.Join(r.root, name) }

// removeDest deletes a job directory from its backend.
func removeDest(dest string) error {
	store, err := storage.Resolve(dest)
	if err != nil {
		return err
	}
	if store.Local() {
		return os.RemoveAll(strings.TrimPrefix(dest, "file://"))
	}
	names, err := store.List(dest)
	if err != nil {
		return err
	}
	for _, n := range names {
		if err := store.Delete(n); err != nil {
			return err
		}
	}
	return nil
}

// instanceEdges sums the committed edges of a finished job.
func instanceEdges(dir string) (uint64, error) {
	st, err := job.Inspect(dir)
	if err != nil {
		return 0, err
	}
	if !st.Complete() {
		return 0, fmt.Errorf("job %s is not complete", dir)
	}
	var edges uint64
	for _, w := range st.Workers {
		for _, pe := range w.PEs {
			edges += pe.Edges
		}
	}
	return edges, nil
}

// storedBytes sums the sizes of a job's shard objects.
func storedBytes(dir string, spec job.Spec) (int64, error) {
	store, err := storage.Resolve(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for pe := uint64(0); pe < spec.PEs; pe++ {
		n, err := store.Stat(job.ShardPath(dir, pe, spec.ShardFormat()))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// runAll runs every worker of the job, one after another.
func runAll(dir string, spec job.Spec, opts job.RunOptions) error {
	for w := uint64(0); w < spec.Workers; w++ {
		if err := job.Run(dir, w, opts); err != nil {
			return err
		}
	}
	return nil
}

// verifyAll is job.Verify{All} with its result checked: no fault, and
// every chunk of the instance checked.
func verifyAll(dir string, spec job.Spec) (*job.VerifyResult, error) {
	res, err := job.Verify(dir, job.VerifyOptions{All: true})
	if err != nil {
		return nil, err
	}
	if !res.OK() {
		return res, fmt.Errorf("verify found %d faults, first: %v", len(res.Faults), res.Faults[0])
	}
	if uint64(res.ChunksChecked) != spec.TotalChunks() {
		return res, fmt.Errorf("verify checked %d chunks, want %d", res.ChunksChecked, spec.TotalChunks())
	}
	return res, nil
}

// mergeDigest merges a job into the discarding digest writer.
func mergeDigest(dir string) (digest, error) {
	var dw digestWriter
	err := job.Merge(dir, &dw)
	return dw.d, err
}

// round runs one whole round on a fresh job directory: Init, Run,
// verifyReps Verify{All} passes and mergeReps merges, then setupReps
// Inits on throwaway destinations, the setup_s samples. These come after
// the read-only stages, not right after the previous round's directory
// was deleted: an fsync then waits for that deletion's writes, which
// doubled the first Init of every round. Every stage is one attempted
// operation; a failed stage fails the stages after it too, so every
// round attempts the same number of operations.
func (r *jobRun) round(name string, record bool) error {
	dir := r.dir(name)
	verifyReps, mergeReps, inits := r.w.verifyReps, r.w.mergeReps, setupReps
	if !record {
		// The warm-up round does each stage once.
		verifyReps, mergeReps, inits = 1, 1, 1
	}
	ops := 2 + verifyReps + mergeReps + inits
	done := 0
	fail := func(what string, err error) error {
		r.env.op(name+" "+what, err)
		for done++; done < ops; done++ {
			r.env.op(name+" (skipped)", fmt.Errorf("earlier stage failed"))
		}
		return err
	}
	initS, err := timed(func() error { return job.Init(dir, r.spec) })
	if err != nil {
		return fail("init", err)
	}
	r.env.op("init", nil)
	done++

	runS, err := timed(func() error { return runAll(dir, r.spec, job.RunOptions{}) })
	if err == nil && r.edges == 0 {
		r.edges, err = instanceEdges(dir)
	}
	var stored int64
	if err == nil {
		stored, err = storedBytes(dir, r.spec)
	}
	if err != nil {
		return fail("run", err)
	}
	r.env.op("run", nil)
	done++

	var verifyS float64
	for i := 0; i < verifyReps; i++ {
		s, err := timed(func() error { _, err := verifyAll(dir, r.spec); return err })
		if err != nil {
			return fail("verify", err)
		}
		r.env.op("verify", nil)
		done++
		if i == 0 {
			verifyS = s
		}
		if record {
			r.verify = append(r.verify, s)
		}
	}

	// The merges of a round are timed together as one sample: a binary
	// merge takes tens of milliseconds, too short for steal's 10 ms ticks.
	mergeS, err := timed(func() error {
		for range mergeReps {
			d, err := mergeDigest(dir)
			if err == nil {
				if r.want.n == 0 {
					r.want = d
				}
				err = sameDigest("merge of "+name, d, r.want)
			}
			if err != nil {
				return err
			}
			r.env.op("merge", nil)
			done++
		}
		return nil
	})
	if err != nil {
		return fail("merge", err)
	}
	mergeS /= float64(mergeReps)
	if record {
		r.merge = append(r.merge, mergeS)
	}

	for i := range inits {
		d := r.dir(fmt.Sprintf("%s-init%d", name, i))
		s, err := timed(func() error { return job.Init(d, r.spec) })
		if err == nil {
			err = removeDest(d)
		}
		if err != nil {
			return fail("init", err)
		}
		r.env.op("init", nil)
		done++
		if record {
			r.setup = append(r.setup, s)
		}
	}
	if record {
		r.generate = append(r.generate, runS)
		r.cycle = append(r.cycle, initS+runS+verifyS+mergeS)
		r.bytesPerEdge = append(r.bytesPerEdge, float64(stored)/float64(r.edges))
	}
	return nil
}

func (w *jobWorkload) e2e(env *runEnv) error {
	r, err := w.start(env)
	if err != nil {
		return err
	}
	defer r.stop()
	// Warm-up: one untimed round fills caches, finishes lazy set-up and
	// records the instance's edge count and merged output digest.
	if err := r.round("warmup", false); err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	if err := removeDest(r.dir("warmup")); err != nil {
		return err
	}
	rss := startRSSSampler()
	defer rss.close()
	rss.peak()
	last := ""
	err = env.rounds(func(i int) error {
		name := fmt.Sprintf("r%03d", i)
		r.round(name, true)
		r.rss = append(r.rss, rss.peak())
		if last != "" {
			if err := removeDest(r.dir(last)); err != nil {
				return err
			}
		}
		last = name
		return nil
	})
	if err != nil {
		return err
	}

	// The full independent check, on the last round's job directory:
	// decode the merged output with the benchmark's own reader.
	if err := r.checkOutput(r.dir(last)); err != nil {
		env.wrong("output check", err)
	} else {
		env.op("output check", nil)
	}

	e := float64(r.edges)
	for _, m := range []struct {
		name, unit string
		xs         []float64
		f          func(float64) float64
	}{
		{"setup_s", "s", r.setup, nil},
		{"generate_edges_per_s", "edges/s", r.generate, func(s float64) float64 { return e / s }},
		{"verify_edges_per_s", "edges/s", r.verify, func(s float64) float64 { return e / s }},
		{"merge_edges_per_s", "edges/s", r.merge, func(s float64) float64 { return e / s }},
		{"jobs_per_s", "jobs/s", r.cycle, func(s float64) float64 { return 1 / s }},
		{"stored_bytes_per_edge", "B/edge", r.bytesPerEdge, nil},
		{"peak_rss_mb", "MiB", r.rss, nil},
	} {
		if m.f != nil {
			m.xs = rates(m.xs, m.f)
		}
		if err := env.setMedian(m.name, m.unit, m.xs); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, %d edges; samples: init %d, run %d, verify %d, merge %d\n",
		len(r.generate), r.edges, len(r.setup), len(r.generate), len(r.verify), len(r.merge))
	return nil
}

// checkOutput merges dir into the workload's independent checker and
// requires the bytes to match the digest every timed merge matched.
func (r *jobRun) checkOutput(dir string) error {
	pr, pw := io.Pipe()
	var dw digestWriter
	merged := make(chan error, 1)
	go func() {
		err := job.Merge(dir, io.MultiWriter(pw, &dw))
		pw.CloseWithError(err)
		merged <- err
	}()
	err := checkStream(pr, r.spec.Format, checkerFor(r.spec))
	pr.CloseWithError(errors.New("checker stopped reading"))
	if merr := <-merged; err == nil {
		err = merr
	}
	if err != nil {
		return err
	}
	if want := expectedEdges(r.spec); r.edges != want {
		return fmt.Errorf("manifests record %d edges, want %d", r.edges, want)
	}
	return sameDigest("checked merge", dw.d, r.want)
}

// rates maps stage times to rates.
func rates(xs []float64, f func(float64) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
