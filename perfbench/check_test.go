package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	kagen "repro"
	"repro/internal/job"
)

// generate writes a spec's whole instance in the given format.
func generate(t *testing.T, spec job.Spec, format kagen.Format) []byte {
	t.Helper()
	st, err := spec.Streamer()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := kagen.Stream(st, 0, kagen.NewFormatSink(&buf, format)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mutate returns a copy of an uncompressed edge list with one edge
// changed by change, or with one edge dropped when change is nil.
func mutate(b []byte, format string, change func(u, v uint64) (uint64, uint64)) []byte {
	const at = 7 // the edge to change or drop
	if format == "binary" {
		out := append([]byte(nil), b...)
		rec := out[16+16*at : 16+16*(at+1)]
		if change == nil {
			return append(out[:16+16*at], out[16+16*(at+1):]...)
		}
		u, v := change(binary.LittleEndian.Uint64(rec), binary.LittleEndian.Uint64(rec[8:]))
		binary.LittleEndian.PutUint64(rec, u)
		binary.LittleEndian.PutUint64(rec[8:], v)
		return out
	}
	lines := strings.SplitAfter(string(b), "\n")
	i := 1 + at // line 0 is the header
	if change == nil {
		lines = append(lines[:i], lines[i+1:]...)
	} else {
		var u, v uint64
		fmt.Sscanf(lines[i], "%d %d", &u, &v)
		u, v = change(u, v)
		lines[i] = fmt.Sprintf("%d %d\n", u, v)
	}
	return []byte(strings.Join(lines, ""))
}

func TestCheckersAcceptGeneratedAndRejectMutated(t *testing.T) {
	for _, tc := range []struct {
		spec   job.Spec
		format kagen.Format
		// change alters one edge so that the model's definition is broken.
		change func(u, v uint64) (uint64, uint64)
	}{
		{
			// R-MAT's frequencies are statistical, so a single changed edge
			// is caught by the id range.
			spec:   job.Spec{Model: "rmat", Scale: 12, M: 1 << 15, Seed: 3, PEs: 4, ChunksPerPE: 2},
			format: kagen.FormatBinary,
			change: func(u, v uint64) (uint64, uint64) { return u | 1<<12, v },
		},
		{
			spec:   job.Spec{Model: "gnm_undirected", N: 1 << 12, M: 1 << 14, Seed: 3, PEs: 2, ChunksPerPE: 4},
			format: kagen.FormatBinary,
			change: func(u, v uint64) (uint64, uint64) { return u, (v + 1) % (1 << 12) },
		},
		{
			spec:   job.Spec{Model: "rdg2d", N: 1 << 12, Seed: 3, PEs: 4, ChunksPerPE: 2},
			format: kagen.FormatText,
			change: func(u, v uint64) (uint64, uint64) { return u, (v + 1) % (1 << 12) },
		},
	} {
		t.Run(tc.spec.Model, func(t *testing.T) {
			spec := tc.spec.Normalized()
			good := generate(t, spec, tc.format)
			if err := checkStream(bytes.NewReader(good), string(tc.format), checkerFor(spec)); err != nil {
				t.Fatalf("generated output rejected: %v", err)
			}
			if n := uint64(len(good)); tc.format == kagen.FormatBinary && n != 16+16*expectedEdges(spec) {
				t.Fatalf("generated %d bytes, want %d edges", n, expectedEdges(spec))
			}
			for name, bad := range map[string][]byte{
				"edge changed": mutate(good, string(tc.format), tc.change),
				"edge dropped": mutate(good, string(tc.format), nil),
			} {
				err := checkStream(bytes.NewReader(bad), string(tc.format), checkerFor(spec))
				if err == nil {
					t.Errorf("%s: accepted", name)
				} else {
					t.Logf("%s: rejected: %v", name, err)
				}
			}
		})
	}
}

func TestCheckerRejectsBiasedRMAT(t *testing.T) {
	// Every edge in the top-left quadrant at every level: the right count
	// and id range, but not R-MAT's quadrant frequencies.
	const scale, m = 10, 1 << 12
	b := binary.LittleEndian.AppendUint64(nil, 1<<scale)
	b = binary.LittleEndian.AppendUint64(b, m)
	b = append(b, make([]byte, 16*m)...)
	if err := checkStream(bytes.NewReader(b), "binary", newRMATChecker(scale, m)); err == nil {
		t.Fatal("biased R-MAT accepted")
	}
}

func TestCheckStreamGzip(t *testing.T) {
	spec := job.Spec{Model: "gnm_undirected", N: 1 << 10, M: 1 << 12, Seed: 5, PEs: 2, ChunksPerPE: 2}.Normalized()
	good := generate(t, spec, kagen.FormatBinaryGz)
	if err := checkStream(bytes.NewReader(good), "binary.gz", checkerFor(spec)); err != nil {
		t.Fatalf("generated output rejected: %v", err)
	}
	// A stream cut short inside the last gzip member is an error, not a
	// shorter edge list.
	if err := checkStream(bytes.NewReader(good[:len(good)-9]), "binary.gz", checkerFor(spec)); err == nil {
		t.Fatal("truncated gzip stream accepted")
	}
	var plain bytes.Buffer
	zr, err := gzip.NewReader(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	if err := checkStream(&plain, "binary", checkerFor(spec)); err != nil {
		t.Fatalf("decompressed output rejected: %v", err)
	}
}
