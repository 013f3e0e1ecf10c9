package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestNewServerBoundsConnections checks that dirqd's server bounds slow
// clients: a header deadline, a whole-request deadline and an idle
// keep-alive limit.
func TestNewServerBoundsConnections(t *testing.T) {
	srv := newServer(":0", http.NotFoundHandler(), readTimeout)
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.ReadTimeout != readTimeout || srv.ReadTimeout < readHeaderTimeout || readTimeout > time.Minute {
		t.Fatalf("ReadTimeout = %v, want %v, at least the header bound and at most a minute", srv.ReadTimeout, readTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	// A request body can be large; a header phase never takes minutes.
	if readHeaderTimeout > time.Minute {
		t.Fatalf("readHeaderTimeout %v is no bound on a stalled client", readHeaderTimeout)
	}
}

// TestMainServesWithReadTimeout checks that main builds its server with
// the production whole-request bound, which the tests below shorten.
func TestMainServesWithReadTimeout(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var args [][]ast.Expr
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "main" {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "newServer" {
						args = append(args, c.Args)
					}
				}
				return true
			})
		}
	}
	if len(args) != 1 {
		t.Fatalf("main calls newServer %d times, want once", len(args))
	}
	if id, ok := args[0][len(args[0])-1].(*ast.Ident); !ok || id.Name != "readTimeout" {
		t.Fatal("main's newServer call does not pass readTimeout as the read bound")
	}
}

// TestNewServerClosesStalledBody checks the whole-request bound: a client
// that sends its headers at once but stalls mid-body has its connection
// closed once the read bound has passed, and the handler's body read
// fails instead of blocking for ever.
func TestNewServerClosesStalledBody(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const read = 200 * time.Millisecond
	readErr := make(chan error, 1)
	srv := newServer(ln.Addr().String(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := io.ReadAll(r.Body)
		readErr <- err
		http.Error(w, "unreadable body", http.StatusBadRequest)
	}), read)
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /query HTTP/1.1\r\nHost: dirqd\r\n"+
		"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	bound := read + 5*time.Second
	conn.SetReadDeadline(start.Add(bound))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open %v after a stalled body: %v", time.Since(start).Round(time.Millisecond), err)
	}
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("the handler read 1 byte of a 100-byte body without an error")
		}
	default:
		t.Fatal("the connection closed while the handler was still reading its body")
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
	}), readTimeout)
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
