package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadInvocationsExit2 pins the flag-validation contract: every bad
// invocation is exit 2 with a diagnostic on stderr, before any socket is
// bound.
func TestBadInvocationsExit2(t *testing.T) {
	regular := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(regular, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"positional args", []string{"serve"}, "unexpected arguments"},
		{"empty addr", []string{"-addr", ""}, "-addr must not be empty"},
		{"negative jobs", []string{"-jobs", "-3"}, "-jobs must be at least 1"},
		{"negative store budget", []string{"-store", t.TempDir(), "-store-max-mb", "-1"}, "non-negative"},
		{"budget without store", []string{"-store-max-mb", "64"}, "without -store"},
		{"store at a regular file", []string{"-store", regular}, regular},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			h, _, code := setup(tc.args, &stderr)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr: %s", code, stderr.String())
			}
			if h != nil {
				t.Error("bad invocation still produced a handler")
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
		})
	}
}

// TestSetupServesAndPersists drives the daemon handler end to end: a
// fresh run, a byte-identical cache hit, and — after a simulated restart
// over the same store directory — a byte-identical disk hit.
func TestSetupServesAndPersists(t *testing.T) {
	dir := t.TempDir()
	req := `{"workload":{"name":"w","kind":"trimat","n":16}}`

	post := func(t *testing.T, h http.Handler) (string, []byte) {
		t.Helper()
		ts := httptest.NewServer(h)
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Cedar-Source"), body
	}

	var stderr bytes.Buffer
	h, addr, code := setup([]string{"-store", dir, "-jobs", "2"}, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if addr != "localhost:8347" {
		t.Errorf("default addr = %q", addr)
	}
	source, fresh := post(t, h)
	if source != "run" {
		t.Fatalf("first submission source = %q, want run", source)
	}
	source, again := post(t, h)
	if source != "cache" || !bytes.Equal(fresh, again) {
		t.Fatalf("repeat: source=%q equal=%v", source, bytes.Equal(fresh, again))
	}

	h2, _, code := setup([]string{"-store", dir}, &stderr)
	if code != 0 {
		t.Fatalf("restart exit %d: %s", code, stderr.String())
	}
	source, restarted := post(t, h2)
	if source != "cache" || !bytes.Equal(fresh, restarted) {
		t.Fatalf("restart: source=%q equal=%v — the store did not persist", source, bytes.Equal(fresh, restarted))
	}
}
