package server

import (
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/trace"
)

// Client-side helpers for the session protocol, shared by tracecheck's
// and veloinstr's -server modes (and by the server's own tests).

// writeCloser is the half-close capability of TCP and Unix stream
// connections: the client signals end-of-trace by closing the write
// side while keeping the read side open for the verdict.
type writeCloser interface {
	CloseWrite() error
}

// Dial connects to a daemon at addr (SplitAddr notation).
func Dial(addr string, timeout time.Duration) (net.Conn, error) {
	network, address := SplitAddr(addr)
	return net.DialTimeout(network, address, timeout)
}

// CheckReader runs one complete session against the daemon at addr:
// write the header, stream the trace bytes from r (either encoding),
// half-close, and read the verdict. Transport failures return an error;
// protocol-level failures (malformed trace, busy server) return a
// verdict with the corresponding status, so callers distinguish "the
// daemon judged my trace" from "I never reached a daemon".
func CheckReader(addr string, hdr trace.SessionHeader, r io.Reader) (*trace.SessionVerdict, error) {
	if err := hdr.Validate(); err != nil {
		return nil, err
	}
	conn, err := Dial(addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	if _, err := conn.Write(hdr.Encode()); err != nil {
		return nil, fmt.Errorf("server: writing session header: %w", err)
	}
	// The daemon may answer before the trace has been sent in full (busy,
	// over quota, malformed after a prefix) and close its end; the copy
	// or the half-close then fails with EPIPE / ENOTCONN. Prefer its
	// verdict to the bare transport error when one is readable.
	_, err = io.Copy(conn, r)
	if err != nil {
		err = fmt.Errorf("server: streaming trace: %w", err)
	} else if hc, ok := conn.(writeCloser); ok {
		if err = hc.CloseWrite(); err != nil {
			err = fmt.Errorf("server: half-close: %w", err)
		}
	}
	v, verr := trace.ReadVerdict(conn)
	if verr == nil {
		return v, nil
	}
	if err == nil {
		err = verr
	}
	return nil, err
}
