package main

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestNewServerBoundsConnections checks that dirqd's server bounds slow
// clients: a header deadline and an idle keep-alive limit.
func TestNewServerBoundsConnections(t *testing.T) {
	srv := newServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	// A request body can be large; a header phase never takes minutes.
	if readHeaderTimeout > time.Minute {
		t.Fatalf("readHeaderTimeout %v is no bound on a stalled client", readHeaderTimeout)
	}
}

// TestNewServerServesHandler runs the built server on loopback and checks
// that it routes to the handler it was given.
func TestNewServerServesHandler(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ln.Addr().String(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "dirqd")
	}))
	go srv.Serve(ln)
	defer srv.Close()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "dirqd") {
		t.Fatalf("got %d %q", resp.StatusCode, body)
	}
}
