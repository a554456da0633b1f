package main

import (
	"io"
	"net"
	"testing"
	"time"

	codesignvm "codesignvm"
)

// TestIntrospectionClosesStalledHeader opens a connection, sends half a
// request header and never finishes it: the server must close the
// connection once readHeaderTimeout has passed, not hold it forever.
func TestIntrospectionClosesStalledHeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := startIntrospection(ln, codesignvm.NewObserver(nil))
	defer stop()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	// The server answers a header timeout with a 408 or nothing; either
	// way the connection must then reach EOF.
	_, err = io.ReadAll(conn)
	if err != nil {
		t.Fatalf("connection still open %v after a stalled header: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if el := time.Since(start); el < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", el, readHeaderTimeout)
	}
}
