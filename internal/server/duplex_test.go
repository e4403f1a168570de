package server_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"udp"
	"udp/internal/builtins"
	"udp/internal/client"
	"udp/internal/etl"
	"udp/internal/kernels/csvparse"
	"udp/internal/server"
)

// TestTransformMultiShardBodyOverKeepAlive: a body of several shards makes
// the handler flush its first frame while most of the body is still unread.
// On a keep-alive connection net/http used to answer that by discarding the
// unread body, so about one such request in seven died with "unexpected
// EOF". Fifty in a row over one connection must all come back whole.
func TestTransformMultiShardBodyOverKeepAlive(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(server.New(server.Options{}).Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())

	body := etl.LineitemCSV(3000, 20170101) // ~216 KB: four shards at the default chunk
	if i := bytes.LastIndexByte(body, '\n'); i > 0 {
		body = body[:i+1]
	}
	want := csvparse.ParseSep(body, '|')
	for i := 0; i < 50; i++ {
		got, err := c.TransformBytes(context.Background(), "csvpipe", body)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: %d bytes back, want %d", i, len(got), len(want))
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections: the requests did not share a keep-alive connection, so the test proved nothing", n)
	}
}

// TestCyclesTrailerDeterministic: X-Udp-Cycles is the simulated makespan,
// so the same multi-shard body gives the same value on every request,
// whatever host goroutine ran which shard (run it with go test -cpu 1,2,8).
// It is the value udp.Exec reports for the same body, chunking and lanes.
func TestCyclesTrailerDeterministic(t *testing.T) {
	const lanes, chunk = 8, 16 << 10
	ts := httptest.NewServer(server.New(server.Options{MaxLanes: lanes}).Handler())
	defer ts.Close()
	body := etl.LineitemCSV(20000, 20170101)
	body = body[:bytes.LastIndexByte(body[:2<<20], '\n')+1]

	im, err := udp.Compile(builtins.Program("csvpipe"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := udp.Exec(context.Background(), im, bytes.NewReader(body),
		udp.WithMaxLanes(lanes), udp.WithChunker('\n'), udp.WithChunkBytes(chunk))
	if err != nil {
		t.Fatal(err)
	}
	want := strconv.FormatUint(ref.Cycles, 10)
	for i := 0; i < 50; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/transform/csvpipe?chunk="+strconv.Itoa(chunk),
			"text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, err %v", i, resp.StatusCode, err)
		}
		if got := resp.Trailer.Get("X-Udp-Cycles"); got != want {
			t.Fatalf("request %d: X-Udp-Cycles %s, want %s (udp.Exec over the same shards)", i, got, want)
		}
	}
}
