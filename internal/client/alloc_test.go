//go:build !race

package client

import (
	"bytes"
	"io"
	"net/http"
	"testing"
)

// cannedTransport answers every request in memory: a start with episode 1
// and its decision, an observation with the next decision. Its own
// allocations per request are the response, its body reader and the
// reader's closer.
type cannedTransport struct{}

var (
	cannedStart    = []byte(`{"episodeId":1,"decision":{"action":0,"actionName":"observe","terminate":false,"value":-1.5}}` + "\n")
	cannedDecision = []byte(`{"action":0,"actionName":"observe","terminate":false,"value":-1.25}` + "\n")
	cannedHeader   = http.Header{"Content-Type": {"application/json"}}
)

func (cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		drainClose(req.Body)
	}
	body := cannedDecision
	if req.URL.Path == "/v1/episodes" {
		body = cannedStart
	}
	return &http.Response{StatusCode: http.StatusOK, Header: cannedHeader, Body: io.NopCloser(bytes.NewReader(body))}, nil
}

// TestEpisodeStepAllocs pins the allocations of a warm served step, an
// Observe and the Decide its answer carries, against an in-memory
// transport, three of whose allocations are the transport's own. It was
// 31 when each attempt went through http.Client.Do, with headers added per
// request and paths formatted per call.
func TestEpisodeStepAllocs(t *testing.T) {
	const pin = 19
	c, err := New("http://canned.invalid", &http.Client{Transport: cannedTransport{}})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := c.StartEpisodeKeyed("k-allocs")
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if err := ep.Observe(0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ep.Decide(); err != nil {
			t.Fatal(err)
		}
	}
	step() // the fused start
	if got := testing.AllocsPerRun(200, step); got > pin {
		t.Errorf("a warm served step allocates %v times, want at most %d", got, pin)
	}
}
