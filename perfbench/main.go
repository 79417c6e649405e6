// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the generator through its public layers — job,
// storage, serve, the root kagen package and graph — and checks every
// output with readers of its own. See README.md for the workloads, the
// metrics and how each per-layer figure maps to an end-to-end one.
//
//	perfbench -out DIR --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end figures; with --trace 1 they are the per-layer figures
// of a separate traced run, whose Chrome trace JSON is written to
// DIR/results. perfbench is normally started through run.sh, which
// builds it first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == s3ServerCmd {
		if err := serveS3(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench s3 stand-in:", err)
			os.Exit(1)
		}
		return
	}
	out := flag.String("out", ".bench_build", "directory for scratch data, traces and result lines")
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed: every input is derived from it")
	seconds := flag.Float64("seconds", 10, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := runWorkload(*name, w, *out, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	var line []byte
	if err == nil {
		line, err = json.Marshal(res)
	}
	if err == nil {
		file := fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace)
		err = os.WriteFile(filepath.Join(*out, "results", file), append(line, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workload is one benchmark input set. e2e runs the untraced end-to-end
// pass, layers the traced per-layer pass.
type workload interface {
	e2e(env *runEnv) error
	layers(env *runEnv) error
}

var workloads = map[string]workload{
	"rmat-binary-file": rmatBinaryFile(),
	"gnm-gzip-s3":      gnmGzipS3(),
	"rdg2d-text-serve": rdg2dTextServe(),
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// runEnv is what one run hands its workload: the seed, the measured
// duration, a scratch directory, and the tally and metrics it fills.
type runEnv struct {
	seed    uint64
	seconds time.Duration
	work    string // scratch directory, removed when the run ends
	results string // directory for trace files
	name    string
	res     result
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(name string, w workload, out string, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	work := filepath.Join(out, "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	results := filepath.Join(out, "results")
	for _, d := range []string{work, results} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(work)
	env := &runEnv{seed: seed, seconds: seconds, work: work, results: results, name: name,
		res: result{Correct: true, Metrics: map[string]metric{}}}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%v traced=%v GOMAXPROCS=%d\n",
		name, seed, seconds, traced, runtime.GOMAXPROCS(0))
	var err error
	if traced {
		err = w.layers(env)
	} else {
		err = w.e2e(env)
	}
	if err != nil {
		return nil, err
	}
	if env.res.Attempted == 0 {
		return nil, fmt.Errorf("%s attempted no operation", name)
	}
	return &env.res, nil
}

// rounds runs whole rounds, at least one, and stops before a round that
// would end past the run's time, predicting each round to take as long
// as the longest so far.
func (e *runEnv) rounds(round func(i int) error) error {
	start := time.Now()
	var longest time.Duration
	for i := 0; ; i++ {
		t := time.Now()
		if err := round(i); err != nil {
			return err
		}
		longest = max(longest, time.Since(t))
		if time.Since(start)+longest > e.seconds {
			return nil
		}
	}
}

// op records one attempted operation; a non-nil err counts it as failed.
// It returns err so call sites can branch on it.
func (e *runEnv) op(what string, err error) error {
	e.res.Attempted++
	if err != nil {
		e.res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
	}
	return err
}

// wrong records a failed output check: the operation fails and the run
// is no longer correct.
func (e *runEnv) wrong(what string, err error) {
	e.res.Correct = false
	e.op(what, err)
}

func (e *runEnv) set(name, unit string, v float64) {
	e.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// setMedian sets a metric to the median of its samples; a metric without
// samples is an error, since every reported figure must be measured.
func (e *runEnv) setMedian(name, unit string, xs []float64) error {
	if len(xs) == 0 {
		return fmt.Errorf("metric %s has no samples (every attempt failed)", name)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s %s over %d samples %.4g\n", name, unit, len(xs), xs)
	e.set(name, unit, median(xs))
	return nil
}

// timed runs fn after a full collection, so garbage from earlier stages
// is not charged to it, and returns its time in seconds as a watch
// measures it.
func timed(fn func() error) (float64, error) {
	runtime.GC()
	w := startWatch()
	err := fn()
	return w.seconds(), err
}

// watch times an interval as wall time net of the CPU time the
// hypervisor reports it took from this machine's vCPUs during the
// interval (the steal column of /proc/stat), shared over the vCPUs. On a
// shared virtual machine steal swings by tens of percent from one minute
// to the next and would otherwise decide the figures. Where steal is not
// reported the watch reads wall time. Intervals shorter than minNet are
// left as wall time: steal is counted in 10 ms ticks, too coarse for
// them.
type watch struct {
	t     time.Time
	steal float64
}

const minNet = 0.05

func startWatch() watch { return watch{t: time.Now(), steal: stealSeconds()} }

func (w watch) seconds() float64 {
	wall := time.Since(w.t).Seconds()
	if wall < minNet {
		return wall
	}
	return wall - (stealSeconds()-w.steal)/float64(runtime.NumCPU())
}

// stealSeconds is the CPU time stolen from all vCPUs since boot, from the
// first line of /proc/stat (in USER_HZ ticks of 10 ms), or 0.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// rssSampler tracks the process's resident set size between calls of
// peak, sampling it every few milliseconds: the peak of each round is
// one sample, so the reported figure is a median like every other one
// instead of a single high-water mark set by one unlucky collection.
type rssSampler struct {
	mu   sync.Mutex
	max  float64 // MiB since the last peak call
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if v, err := rssMiB(); err == nil {
					s.mu.Lock()
					s.max = max(s.max, v)
					s.mu.Unlock()
				}
			}
		}
	}()
	return s
}

// peak returns the largest RSS seen since the previous call.
func (s *rssSampler) peak() float64 {
	v, _ := rssMiB()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := max(s.max, v)
	s.max = 0
	return p
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// rssMiB reads the current resident set size from /proc/self/status.
func rssMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
