package main

// The S3 stand-in runs in a child process of its own, so the objects it
// stores are kept out of the workload process's peak RSS.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"repro/internal/storage/s3test"
)

const (
	s3ServerCmd = "s3server"
	s3Bucket    = "bench"
	s3Access    = "perfbench"
	s3Secret    = "perfbench-secret"
)

// serveS3 is the child process: it serves one bucket on a loopback port,
// prints the endpoint URL, and exits when its standard input closes.
func serveS3() error {
	srv := s3test.New(s3Access, s3Secret, s3Bucket)
	defer srv.Close()
	fmt.Println(srv.URL())
	_, err := io.Copy(io.Discard, os.Stdin)
	return err
}

// startS3 starts the stand-in and points the storage layer's S3 client
// at it. The returned stop closes the child's input and waits for it to
// exit.
func startS3() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, s3ServerCmd)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stop = func() {
		in.Close()
		cmd.Wait()
	}
	url, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		stop()
		return nil, fmt.Errorf("s3 stand-in did not start: %w", err)
	}
	for k, v := range map[string]string{
		"KAGEN_S3_ENDPOINT":     strings.TrimSpace(url),
		"AWS_ACCESS_KEY_ID":     s3Access,
		"AWS_SECRET_ACCESS_KEY": s3Secret,
	} {
		if err := os.Setenv(k, v); err != nil {
			stop()
			return nil, err
		}
	}
	return stop, nil
}
