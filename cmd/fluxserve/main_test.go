package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts: the binary's server must bound header reads,
// whole-request reads and idle keep-alives; a zero value means no limit.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("unbounded connection deadlines: header %v, read %v, idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.ReadHeaderTimeout > hs.ReadTimeout {
		t.Errorf("header deadline %v exceeds the whole-request deadline %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout)
	}
}
