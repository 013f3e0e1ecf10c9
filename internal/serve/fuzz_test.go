package serve

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzQueryBody feeds POST /query bodies through decodeQueryBody and
// toRequest, the handler's whole parse path. Neither may panic; a request
// they accept has Lo <= Hi and a timeout in (0, 5 min]; and its wire form
// re-encodes to a body that parses to the same request and timeout. The
// corpus is seeded from TestHTTPErrors' bodies. Run it with
//
//	go test -run '^$' -fuzz '^FuzzQueryBody$' -fuzztime 20s ./internal/serve/
func FuzzQueryBody(f *testing.F) {
	for _, body := range []string{
		`{"type":"temperature"}`,
		`{"type":"pressure"}`,
		`{"type":"temperature","lo":5,"hi":1}`,
		`{"shard":"nope","type":"temperature"}`,
		`{"type":"temperature","timeout_ms":10000000000000}`,
		`{"type":"temperature","timeout_ms":300000}`,
		`{"type":"humidity","lo":-0,"hi":1e308,"timeout_ms":-1}`,
		`{"type":"temperature","hi_":25}`,
		`{"type":"temperature"}{"type":"light"}`,
		`{"type":"temperature"} x`,
		"{\"type\":\"temperature\"}\n\t ",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		wire, err := decodeQueryBody(bytes.NewReader(body))
		if err != nil {
			return
		}
		req, timeout, err := wire.toRequest()
		if err != nil {
			return
		}
		if !(req.Lo <= req.Hi) {
			t.Fatalf("accepted range [%v, %v]", req.Lo, req.Hi)
		}
		if timeout <= 0 || timeout > 5*time.Minute {
			t.Fatalf("accepted timeout %v", timeout)
		}
		enc, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", wire, err)
		}
		wire2, err := decodeQueryBody(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded body %s: %v", enc, err)
		}
		req2, timeout2, err := wire2.toRequest()
		if err != nil || req2 != req || timeout2 != timeout {
			t.Fatalf("re-encoded body %s parses to %+v, %v, %v; want %+v, %v", enc, req2, timeout2, err, req, timeout)
		}
	})
}
