package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ctcp/internal/serve"
)

// TestClientVerbs drives -submit, -wait, -watch and -batch against an
// in-process service, and checks the exit code of each.
func TestClientVerbs(t *testing.T) {
	s, err := serve.New(serve.Config{Store: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("service shutdown: %v", err)
		}
	}()

	batch := func(rows string) string {
		path := filepath.Join(t.TempDir(), "batch.json")
		if err := os.WriteFile(path, []byte(rows), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name string
		o    cliOptions
		want int
	}{
		{"submit", cliOptions{submit: true, bm: "gzip", config: "fdrt", insts: 2000, timeout: time.Minute}, 0},
		{"wait", cliOptions{waitID: "job-1"}, 0},
		{"watch", cliOptions{watchID: "job-1"}, 0},
		{"batch", cliOptions{batchPath: batch(`[
			{"benchmark": "gzip", "config": "fdrt", "budget": 2000},
			{"benchmark": "mcf", "config": "fdrt", "budget": 2000}]`)}, 0},
		{"batch of an unknown benchmark", cliOptions{batchPath: batch(`[
			{"benchmark": "nosuch", "config": "fdrt", "budget": 2000}]`)}, 1},
		{"no mode", cliOptions{}, 2},
		{"two modes", cliOptions{submit: true, waitID: "job-1", bm: "gzip", config: "fdrt"}, 2},
	}
	for _, c := range cases {
		c.o.addr = ts.URL
		if got := run(&c.o); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
