// Protocol conformance: golden request/response JSONL fixtures pin
// the wire format (regenerate with -update after deliberate protocol
// changes), strict-decode rejection tests pin what the server refuses
// to guess at, and a fuzzer hammers the decoder.
//
//	go test ./internal/serve -run TestProtocolGolden -update
package serve

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocemu/internal/jsonio"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden protocol fixture")

// TestProtocolGolden replays testdata/requests.jsonl through a fresh
// server and compares the response transcript byte-for-byte against
// testdata/responses.golden.jsonl. The fixture includes malformed
// frames: error responses are part of the wire contract too.
func TestProtocolGolden(t *testing.T) {
	reqs, err := os.ReadFile(filepath.Join("testdata", "requests.jsonl"))
	if err != nil {
		t.Fatalf("read request fixture: %v", err)
	}
	m := NewManager(Options{})
	defer m.Shutdown()
	var got bytes.Buffer
	if err := ServeStdio(m, bytes.NewReader(reqs), &got); err != nil {
		t.Fatalf("serve fixture: %v", err)
	}
	goldenPath := filepath.Join("testdata", "responses.golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to generate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl := strings.Split(strings.TrimSpace(got.String()), "\n")
		wl := strings.Split(strings.TrimSpace(string(want)), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			g, w := "<missing>", "<missing>"
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("response %d:\ngot:  %s\nwant: %s", i, g, w)
			}
		}
	}
}

// TestStrictDecodeRejections pins the frames the decoder must refuse.
func TestStrictDecodeRejections(t *testing.T) {
	cases := []struct {
		name  string
		frame string
		want  string
	}{
		{"empty object", `{}`, "protocol version"},
		{"wrong version", `{"v":99,"op":"stats","sid":"s"}`, "protocol version 99"},
		{"unknown field", `{"v":1,"op":"stats","sid":"s","bogus":1}`, "unknown field"},
		{"unknown op", `{"v":1,"op":"teleport","sid":"s"}`, `unknown op "teleport"`},
		{"missing sid", `{"v":1,"op":"stats"}`, "without sid"},
		{"open without platform", `{"v":1,"op":"open","sid":"s"}`, "open without platform"},
		{"platform on step", `{"v":1,"op":"step","sid":"s","cycles":1,"platform":{}}`, "does not take a platform"},
		{"zero-byte inject", `{"v":1,"op":"inject","sid":"s","src":0,"dst":4}`, "zero bytes"},
		{"zero-cycle step", `{"v":1,"op":"step","sid":"s"}`, "zero cycles"},
		{"trailing data", `{"v":1,"op":"stats","sid":"s"} {"v":1}`, "trailing data"},
		{"not json", `hello`, "malformed frame"},
		{"wrong type", `{"v":1,"op":"stats","sid":5}`, "malformed frame"},
		{"nested unknown field", `{"v":1,"op":"open","sid":"s","platform":{"warp":9}}`, "unknown field"},
	}
	for _, c := range cases {
		_, err := jsonio.DecodeServeRequest([]byte(c.frame))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestRequestRoundTrip checks encode/decode closure over the op set.
func TestRequestRoundTrip(t *testing.T) {
	reqs := []jsonio.ServeRequest{
		func() jsonio.ServeRequest {
			r := req(1, jsonio.OpOpen, "rt")
			r.Platform = loadedPlatform(true, 100)
			return r
		}(),
		func() jsonio.ServeRequest {
			r := req(2, jsonio.OpInject, "rt")
			r.Src, r.Dst, r.Bytes, r.Count, r.At = 1, 5, 64, 3, 40
			return r
		}(),
		func() jsonio.ServeRequest {
			r := req(3, jsonio.OpStep, "rt")
			r.Cycles = 500
			return r
		}(),
	}
	for _, want := range reqs {
		got, err := jsonio.DecodeServeRequest(jsonio.EncodeServeRequest(want))
		if err != nil {
			t.Fatalf("decode %s: %v", want.Op, err)
		}
		if want.Platform != nil {
			if got.Platform == nil || *got.Platform != *want.Platform {
				t.Fatalf("%s platform round trip: %+v", want.Op, got.Platform)
			}
			got.Platform, want.Platform = nil, nil
		}
		if got != want {
			t.Fatalf("%s round trip: got %+v want %+v", want.Op, got, want)
		}
	}
}

// FuzzServeRequest hammers the strict decoder: it must never panic,
// and anything it accepts must survive an encode/decode round trip.
func FuzzServeRequest(f *testing.F) {
	f.Add([]byte(`{"v":1,"op":"open","sid":"s","platform":{"topo":"mesh:w=2,h=2"}}`))
	f.Add([]byte(`{"v":1,"op":"xfer","sid":"s","src":1,"dst":5,"bytes":64,"cycles":1000}`))
	f.Add([]byte(`{"v":1,"op":"stats","sid":"s"}`))
	f.Add([]byte(`{"v":2,"op":"stats"`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := jsonio.DecodeServeRequest(frame)
		if err != nil {
			return
		}
		wire := jsonio.EncodeServeRequest(req)
		again, err := jsonio.DecodeServeRequest(wire)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if !bytes.Equal(jsonio.EncodeServeRequest(again), wire) {
			t.Fatalf("round trip changed the request:\n%s\n%s", wire, jsonio.EncodeServeRequest(again))
		}
	})
}

// TestServeStdioFraming checks the line protocol itself: one response
// line per request line, blank lines skipped, malformed lines
// answered (not fatal), output flushed per line.
func TestServeStdioFraming(t *testing.T) {
	m := NewManager(Options{})
	defer m.Shutdown()
	in := strings.Join([]string{
		`{"v":1,"id":1,"op":"open","sid":"f","platform":{"topo":"mesh:w=2,h=2"}}`,
		``,
		`not json at all`,
		`{"v":1,"id":2,"op":"step","sid":"f","cycles":10}`,
		`{"v":1,"id":3,"op":"close","sid":"f"}`,
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := ServeStdio(m, strings.NewReader(in), &out); err != nil {
		t.Fatalf("serve: %v", err)
	}
	transcript := out.Bytes()
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(transcript))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 4 {
		t.Fatalf("%d response lines for 4 non-blank requests: %v", len(lines), lines)
	}
	resps := decodeLines(t, transcript)
	if !resps[0].OK || resps[1].OK || !resps[2].OK || !resps[3].OK {
		t.Fatalf("ok pattern wrong: %+v", resps)
	}
	if !strings.Contains(resps[1].Err, "malformed frame") {
		t.Fatalf("malformed line answer: %+v", resps[1])
	}
	if resps[2].Cycle != 10 {
		t.Fatalf("step answered cycle %d, want 10", resps[2].Cycle)
	}
}
