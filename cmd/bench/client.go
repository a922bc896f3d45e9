package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"syscall"
	"time"
)

// seqWidth is the fixed width of the sequence-number field in every
// pre-serialised request, so a request can be re-sent with a new seq by
// overwriting bytes in place and Content-Length never changes.
const seqWidth = 10

// conn is one session's persistent HTTP/1.1 connection. The timed path
// writes pre-serialised request bytes and parses only what it checks
// (status, Content-Length, a few body fields) into reused buffers: the
// net/http client costs more CPU per request than the server under test
// spends answering a brush, and on two shared cores that would make
// sat_qps a measurement of the generator.
type conn struct {
	fd   blockingFD
	br   *bufio.Reader
	body []byte // reused response body buffer
	out  []byte // reused request buffer (template + patched seq)
}

// blockingFD is a TCP socket in blocking mode, read and written with plain
// syscalls from the session's own OS thread. Going through the runtime's
// network poller instead puts a goroutine park, an epoll wake-up and a
// thread hand-off on every response, and that chain's timing — not the
// server's — is what moved paced_p50_ms between passes.
type blockingFD int

func (fd blockingFD) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(int(fd), p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return 0, fmt.Errorf("no response within %v", ioTimeout)
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (fd blockingFD) Write(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		n, err := syscall.Write(int(fd), p[done:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return done, err
		}
		done += n
	}
	return done, nil
}

// ioTimeout bounds every read and write: a stuck server must fail the run,
// not hang it past the driver's limit.
const ioTimeout = 20 * time.Second

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// File dups the socket and puts the dup in blocking mode; TCP_NODELAY,
	// Go's default for TCP connections, carries over.
	f, err := c.(*net.TCPConn).File()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fd, err := syscall.Dup(int(f.Fd()))
	if err != nil {
		return nil, err
	}
	tv := syscall.NsecToTimeval(int64(ioTimeout))
	for _, opt := range []int{syscall.SO_RCVTIMEO, syscall.SO_SNDTIMEO} {
		if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, opt, &tv); err != nil {
			_ = syscall.Close(fd)
			return nil, err
		}
	}
	return &conn{fd: blockingFD(fd), br: bufio.NewReaderSize(blockingFD(fd), 16<<10)}, nil
}

func (c *conn) close() { _ = syscall.Close(int(c.fd)) }

// do sends req with its seq field set to seq and reads one response. The
// returned body aliases the connection's buffer and is valid until the
// next call.
func (c *conn) do(req *request, seq int64) (status int, body []byte, err error) {
	c.out = append(c.out[:0], req.wire...)
	patchSeq(c.out[req.seqOff:req.seqOff+seqWidth], seq, req.pad)
	if _, err = c.fd.Write(c.out); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

func (c *conn) readResponse() (int, []byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := headerValue(line, "content-length:"); ok {
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		// The server's JSON answers all fit its write buffer and so carry a
		// Content-Length; anything else is not a response this client expects.
		return 0, nil, fmt.Errorf("response without Content-Length (status %d)", status)
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err = io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// headerValue matches a header line against a lower-case "name:" and
// returns its trimmed value.
func headerValue(line []byte, name string) ([]byte, bool) {
	if len(line) < len(name) {
		return nil, false
	}
	for i := 0; i < len(name); i++ {
		ch := line[i]
		if 'A' <= ch && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		if ch != name[i] {
			return nil, false
		}
	}
	return bytes.TrimSpace(line[len(name):]), true
}

// patchSeq writes seq right-aligned into dst, left-filled with pad (a
// space inside JSON, a zero inside a URL).
func patchSeq(dst []byte, seq int64, pad byte) {
	for i := len(dst) - 1; i >= 0; i-- {
		if seq > 0 || i == len(dst)-1 {
			dst[i] = byte('0' + seq%10)
			seq /= 10
		} else {
			dst[i] = pad
		}
	}
}

// jsonInt extracts the integer after `"key":` from a flat JSON body
// without decoding the rest.
func jsonInt(body []byte, key string) (int64, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(body) && (body[j] == '-' || ('0' <= body[j] && body[j] <= '9')) {
		j++
	}
	v, err := strconv.ParseInt(string(body[i:j]), 10, 64)
	return v, err == nil
}

// answerOK is the per-response check every timed request gets: status 200,
// not degraded, and answering the seq that was sent (a brush reports
// applied_seq, the other kinds echo seq).
func answerOK(req *request, seq int64, status int, body []byte) bool {
	if status != 200 || bytes.Contains(body, []byte(`"degraded":true`)) {
		return false
	}
	got, ok := jsonInt(body, req.kind.seqKey())
	return ok && got == seq
}
