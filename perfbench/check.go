package main

// The output checks. Every merged result is decoded by the small readers
// below, not by the program's own decoders, and checked against
// properties of the model that follow from its definition alone.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/job"
)

// edgeChecker consumes a decoded edge list and judges it at the end.
type edgeChecker interface {
	header(n uint64) error
	edge(u, v uint64) error
	finish() error
}

// checkStream decodes one merged edge-list stream of the given format
// ("binary", "text", or either with ".gz") into c and returns c's verdict.
func checkStream(r io.Reader, format string, c edgeChecker) error {
	if base, ok := strings.CutSuffix(format, ".gz"); ok {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return fmt.Errorf("gzip: %w", err)
		}
		defer gz.Close()
		r, format = gz, base
	}
	var err error
	switch format {
	case "binary":
		err = readBinary(r, c)
	case "text":
		err = readText(r, c)
	default:
		err = fmt.Errorf("no reader for format %q", format)
	}
	if err != nil {
		return err
	}
	return c.finish()
}

// streamingCount is the binary header's edge count of a stream whose
// writer could not seek back: the records run to the end.
const streamingCount = math.MaxUint64

// readBinary reads a 16-byte (n, m) little-endian header and 16-byte
// (u, v) records.
func readBinary(r io.Reader, c edgeChecker) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var rec [16]byte
	if _, err := io.ReadFull(br, rec[:]); err != nil {
		return fmt.Errorf("binary header: %w", err)
	}
	if err := c.header(binary.LittleEndian.Uint64(rec[:8])); err != nil {
		return err
	}
	m := binary.LittleEndian.Uint64(rec[8:])
	var count uint64
	for {
		_, err := io.ReadFull(br, rec[:])
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("binary record %d: %w", count, err)
		}
		if err := c.edge(binary.LittleEndian.Uint64(rec[:8]), binary.LittleEndian.Uint64(rec[8:])); err != nil {
			return err
		}
		count++
	}
	if m != streamingCount && m != count {
		return fmt.Errorf("binary header counts %d edges, stream holds %d", m, count)
	}
	return nil
}

// readText reads a "# n" header line and "u v" lines.
func readText(r io.Reader, c edgeChecker) error {
	br := bufio.NewReaderSize(r, 1<<16)
	line, err := br.ReadSlice('\n')
	if err != nil {
		return fmt.Errorf("text header: %w", err)
	}
	rest, ok := bytes.CutPrefix(line, []byte("# "))
	n, tail, nok := parseUint(rest)
	if !ok || !nok || string(tail) != "\n" {
		return fmt.Errorf("text header %q is not \"# n\"", line)
	}
	if err := c.header(n); err != nil {
		return err
	}
	for lineNo := 2; ; lineNo++ {
		line, err := br.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			return nil
		}
		if err != nil {
			return fmt.Errorf("text line %d: %w", lineNo, err)
		}
		u, tail, ok1 := parseUint(line)
		if !ok1 || len(tail) == 0 || tail[0] != ' ' {
			return fmt.Errorf("text line %d %q is not \"u v\"", lineNo, line)
		}
		v, tail, ok2 := parseUint(tail[1:])
		if !ok2 || string(tail) != "\n" {
			return fmt.Errorf("text line %d %q is not \"u v\"", lineNo, line)
		}
		if err := c.edge(u, v); err != nil {
			return err
		}
	}
}

// parseUint parses a leading decimal number.
func parseUint(b []byte) (v uint64, rest []byte, ok bool) {
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, b, false
		}
		v = v*10 + d
	}
	return v, b[i:], i > 0
}

// checkerFor returns the checker of a workload spec's model.
func checkerFor(spec job.Spec) edgeChecker {
	switch spec.Model {
	case "rmat":
		return newRMATChecker(spec.Scale, spec.M)
	case "gnm_undirected":
		return newGNMChecker(spec.N, spec.M)
	case "rdg2d":
		return newRDGChecker(spec.N)
	}
	panic("perfbench: no checker for model " + spec.Model)
}

// expectedEdges is the number of edge records a spec's output holds, by
// the model's definition.
func expectedEdges(spec job.Spec) uint64 {
	switch spec.Model {
	case "rmat":
		return spec.M
	case "gnm_undirected":
		return 2 * spec.M
	case "rdg2d":
		return 6 * spec.N
	}
	panic("perfbench: no edge count for model " + spec.Model)
}

// rmatChecker checks an R-MAT edge list: exactly m edges, every id below
// 2^scale, and at every recursion level the (row bit, column bit) pair
// falls in the four quadrants with the model's probabilities, within
// five standard deviations of the binomial count.
type rmatChecker struct {
	scale  uint
	m      uint64
	count  uint64
	levels [][4]uint64
}

// rmatProbs are the Graph 500 quadrant probabilities (a, b, c, d) the
// generator uses.
var rmatProbs = [4]float64{0.57, 0.19, 0.19, 0.05}

func newRMATChecker(scale uint, m uint64) *rmatChecker {
	return &rmatChecker{scale: scale, m: m, levels: make([][4]uint64, scale)}
}

func (c *rmatChecker) header(n uint64) error {
	if n != 1<<c.scale {
		return fmt.Errorf("rmat: header n=%d, want 2^%d", n, c.scale)
	}
	return nil
}

func (c *rmatChecker) edge(u, v uint64) error {
	if u>>c.scale != 0 || v>>c.scale != 0 {
		return fmt.Errorf("rmat: edge %d (%d, %d) has an id >= 2^%d", c.count, u, v, c.scale)
	}
	for l := range c.levels {
		// Level 0 is the first (most significant) split of the matrix.
		shift := c.scale - 1 - uint(l)
		q := (u>>shift&1)<<1 | v>>shift&1
		c.levels[l][q]++
	}
	c.count++
	return nil
}

func (c *rmatChecker) finish() error {
	if c.count != c.m {
		return fmt.Errorf("rmat: %d edges, want %d", c.count, c.m)
	}
	m := float64(c.m)
	for l, counts := range c.levels {
		for q, got := range counts {
			p := rmatProbs[q]
			if d := math.Abs(float64(got) - m*p); d > 5*math.Sqrt(m*p*(1-p)) {
				return fmt.Errorf("rmat: level %d quadrant %d holds %d edges, expected %.0f ± %.0f (5σ)",
					l, q, got, m*p, 5*math.Sqrt(m*p*(1-p)))
			}
		}
	}
	return nil
}

// symChecker checks an undirected edge list written as both directions of
// every edge: every line's reverse is present, no line repeats, there is
// no self-loop, every id is below n, and the line count is want.
// minDegree > 0 also requires every vertex to have at least that many
// neighbours.
type symChecker struct {
	model     string
	n         uint64
	want      uint64
	minDegree int
	keys      []uint64
}

func newGNMChecker(n, m uint64) *symChecker {
	// m distinct unordered pairs, each written in both directions.
	return &symChecker{model: "gnm_undirected", n: n, want: 2 * m}
}

func newRDGChecker(n uint64) *symChecker {
	// A triangulation of the torus has V - E + F = 0 and 3F = 2E, so
	// E = 3V undirected edges: 6n lines. Every vertex of a Delaunay
	// triangulation has at least three neighbours.
	return &symChecker{model: "rdg2d", n: n, want: 6 * n, minDegree: 3}
}

func (c *symChecker) header(n uint64) error {
	if n != c.n {
		return fmt.Errorf("%s: header n=%d, want %d", c.model, n, c.n)
	}
	if n > 1<<32 {
		return fmt.Errorf("%s: n=%d too large to check", c.model, n)
	}
	if c.keys == nil {
		c.keys = make([]uint64, 0, c.want)
	}
	return nil
}

func (c *symChecker) edge(u, v uint64) error {
	if u >= c.n || v >= c.n {
		return fmt.Errorf("%s: edge (%d, %d) has an id >= n=%d", c.model, u, v, c.n)
	}
	if u == v {
		return fmt.Errorf("%s: self-loop at %d", c.model, u)
	}
	c.keys = append(c.keys, u*c.n+v)
	return nil
}

func (c *symChecker) finish() error {
	if uint64(len(c.keys)) != c.want {
		return fmt.Errorf("%s: %d lines, want %d", c.model, len(c.keys), c.want)
	}
	slices.Sort(c.keys)
	degree, vertices := 0, uint64(0)
	for i, k := range c.keys {
		if i > 0 && k == c.keys[i-1] {
			return fmt.Errorf("%s: edge (%d, %d) appears twice", c.model, k/c.n, k%c.n)
		}
		u, v := k/c.n, k%c.n
		if _, found := slices.BinarySearch(c.keys, v*c.n+u); !found {
			return fmt.Errorf("%s: edge (%d, %d) has no reverse (%d, %d)", c.model, u, v, v, u)
		}
		if i > 0 && c.keys[i-1]/c.n == u {
			degree++
		} else {
			degree = 1
			vertices++
		}
		if c.minDegree > 0 && (i+1 == len(c.keys) || c.keys[i+1]/c.n != u) && degree < c.minDegree {
			return fmt.Errorf("%s: vertex %d has degree %d < %d", c.model, u, degree, c.minDegree)
		}
	}
	if c.minDegree > 0 && vertices != c.n {
		return fmt.Errorf("%s: %d of %d vertices have no edge", c.model, c.n-vertices, c.n)
	}
	return nil
}

// digest is a cheap fingerprint of a byte stream (CRC-32 and length),
// used to show that repeated outputs of one spec are byte-identical to
// the output that was fully checked.
type digest struct {
	crc uint32
	n   int64
}

// digestWriter is the discarding writer merges write into.
type digestWriter struct{ d digest }

func (w *digestWriter) Write(p []byte) (int, error) {
	w.d.crc = crc32.Update(w.d.crc, crc32.IEEETable, p)
	w.d.n += int64(len(p))
	return len(p), nil
}

func digestOf(b []byte) digest {
	return digest{crc: crc32.ChecksumIEEE(b), n: int64(len(b))}
}

func sameDigest(what string, got, want digest) error {
	if got != want {
		return fmt.Errorf("%s: %d bytes crc %08x, want %d bytes crc %08x", what, got.n, got.crc, want.n, want.crc)
	}
	return nil
}
