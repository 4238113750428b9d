//go:build linux

package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// bodyFile fills a BodyFile with body, closed at cleanup.
func bodyFile(tb testing.TB, body []byte) *BodyFile {
	tb.Helper()
	f, err := NewBodyFile(body)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = f.Close() })
	return f
}

// WriteResponseFile puts a response on the wire exactly as WriteResponse
// does, from the memfd while it is open and from resp.Body once it is
// closed, and a raw send allocates nothing.
func TestWriteResponseFile(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 16<<10) // 256 KiB
	resp := NewResponse(Proto11, 200, body)
	resp.Header.Set("X-Served-By", "n1")
	var want bytes.Buffer
	if err := WriteResponse(&want, resp); err != nil {
		t.Fatal(err)
	}
	server, client := tcpPair(t)
	f := bodyFile(t, body)
	got := make([]byte, want.Len())
	exchange := func() {
		errc := make(chan error, 1)
		go func() { errc <- WriteResponseFile(server, resp, f) }()
		_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(client, got); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatal("the wire differs from WriteResponse's")
		}
	}
	exchange()
	drained := make(chan struct{})
	go func() { // reads into got, allocating nothing
		defer close(drained)
		for left := 51 * want.Len(); left > 0; {
			n, err := client.Read(got[:min(len(got), left)])
			if err != nil {
				return
			}
			left -= n
		}
	}()
	allocs := testing.AllocsPerRun(50, func() {
		if err := WriteResponseFile(server, resp, f); err != nil {
			t.Fatal(err)
		}
	})
	<-drained
	if allocs != 0 {
		t.Fatalf("a raw sendfile allocates %.1f times, want 0", allocs)
	}
	_ = f.Close()
	exchange()
	if n, err := server.sendFile(nil, f); err != errFileClosed || n != 0 {
		t.Fatalf("sendFile on a closed file = %d, %v; want 0, errFileClosed", n, err)
	}
}

// A reader that resets mid-body fails the send with the socket's error,
// as writev would.
func TestSendFilePeerReset(t *testing.T) {
	server, client := tcpPair(t)
	f := bodyFile(t, bytes.Repeat([]byte("r"), 4<<20))
	go func() {
		_, _ = io.ReadFull(client, make([]byte, 4096))
		_ = client.SetLinger(0)
		_ = client.Close()
	}()
	_, err := server.sendFile([]byte("head"), f)
	if !errors.Is(err, syscall.ECONNRESET) && !errors.Is(err, syscall.EPIPE) {
		t.Fatalf("sendFile to a reset peer: %v, want ECONNRESET or EPIPE", err)
	}
}

// BenchmarkSendBody places the back end's sendfile threshold: one
// response, header and body, on a raw loopback connection by writev(2) from
// a heap slice and by send(2) + sendfile(2) from a filled memfd, at body
// sizes around the threshold. Each op sends the next of enough distinct
// bodies to fill sendSet, so the bytes come from memory, not the cache, as
// a back end's hits over a site larger than the CPU's caches do.
// send-cpu-ns/op is the sending thread's CPU per response, the back end's
// share: the reader runs on another thread, because where it copies from
// differs between the paths, and a relay in front of a back end splices
// instead of copying.
func BenchmarkSendBody(b *testing.B) {
	const sendSet = 16 << 20
	head := []byte("HTTP/1.1 200 OK\r\nX-Served-By: n1\r\nX-Cache: HIT\r\nContent-Length: 000000\r\n\r\n")
	slab := make([]byte, sendSet)
	for i := range slab {
		slab[i] = byte(i / 4093)
	}
	for _, kib := range []int{16, 32, 64, 128, 256} {
		bodies := make([][]byte, sendSet/(kib<<10))
		files := make([]*BodyFile, len(bodies))
		for i := range bodies {
			bodies[i] = slab[i*kib<<10 : (i+1)*kib<<10]
			f, err := NewBodyFile(bodies[i])
			if err != nil {
				b.Fatal(err)
			}
			files[i] = f
		}
		for _, path := range []string{"writev", "sendfile"} {
			b.Run(fmt.Sprintf("%s/%dKiB", path, kib), func(b *testing.B) {
				server, client := tcpPair(b)
				n := int64(len(head) + kib<<10)
				done := make(chan error, 1)
				go func() {
					br := bufio.NewReaderSize(client, 256<<10)
					_, err := io.CopyN(io.Discard, br, n*int64(b.N))
					done <- err
				}()
				b.SetBytes(n)
				b.ReportAllocs()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				var before, after syscall.Rusage
				_ = syscall.Getrusage(syscall.RUSAGE_THREAD, &before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if path == "writev" {
						_, err = server.writev(head, bodies[i%len(bodies)])
					} else {
						_, err = server.sendFile(head, files[i%len(files)])
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				_ = syscall.Getrusage(syscall.RUSAGE_THREAD, &after)
				cpu := after.Utime.Nano() + after.Stime.Nano() - before.Utime.Nano() - before.Stime.Nano()
				b.ReportMetric(float64(cpu)/float64(b.N), "send-cpu-ns/op")
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			})
		}
		for _, f := range files {
			_ = f.Close()
		}
	}
}
