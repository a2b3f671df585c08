package main

import (
	"net"
	"syscall"
	"testing"
	"time"
)

// flakyListener fails its first Accept calls with the scripted errors,
// then yields conn once, then reports itself closed.
type flakyListener struct {
	errs    []error
	conn    net.Conn
	accepts int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.accepts++
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: err}
	}
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	return nil, &net.OpError{Op: "accept", Net: "tcp", Err: net.ErrClosed}
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// An exhausted descriptor table must cost the server a pause, not its
// life: the loop backs off through the EMFILEs, serves the connection
// that follows, and returns only when the listener is closed.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	client, srvSide := net.Pipe()
	defer client.Close()
	ln := &flakyListener{errs: []error{syscall.EMFILE, syscall.EMFILE}, conn: srvSide}
	served := make(chan net.Conn, 1)

	start := time.Now()
	acceptLoop(ln, func(c net.Conn) { served <- c })
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Errorf("two failures should back off 5ms + 10ms, loop returned after %v", waited)
	}
	if ln.accepts != 4 {
		t.Errorf("want 4 Accept calls (2 failures, 1 connection, closed), got %d", ln.accepts)
	}
	select {
	case c := <-served:
		if c != srvSide {
			t.Error("served a connection the listener did not yield")
		}
		c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("the connection after the failures was never served")
	}
}
