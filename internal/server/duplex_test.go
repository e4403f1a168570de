package server_test

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

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
