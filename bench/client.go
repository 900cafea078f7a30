package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"

	"trafficdiff/internal/core"
	"trafficdiff/internal/nprint"
	"trafficdiff/internal/pcap"
)

// genRequest is one /v1/generate request (or, for offline_bulk, one
// Synthesizer call with the same coordinates).
type genRequest struct {
	Class  string
	Count  int
	Seed   uint64
	Format string // "pcap" or "csv"
}

func (g genRequest) body() string {
	return fmt.Sprintf(`{"class":%q,"count":%d,"seed":%d,"format":%q}`, g.Class, g.Count, g.Seed, g.Format)
}

// reply is a fully read response (or an offline call's encoded result).
type reply struct {
	status int
	header http.Header
	body   []byte
	// res is the result itself when no server was in between.
	res *core.GenerateResult
}

// client is a raw HTTP/1.1 client on one persistent connection, written
// to and read from on the calling goroutine, as cmd/benchjson's
// benchClient: net/http's Transport adds two goroutine hops per request
// that, on a 2-core host shared with the server, would be measured as
// server latency.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	// ok200 counts 200 replies, for reconciling against the server's
	// completed_total.
	ok200 int
}

func newClient(addr string) *client { return &client{addr: addr} }

// do sends one request and reads the whole response. The connection is
// dialled on first use and dropped after a transport error.
func (c *client) do(method, path, body string) (*reply, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return nil, err
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 64<<10)
	}
	req := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		method, path, len(body), body)
	if _, err := io.WriteString(c.conn, req); err != nil {
		c.close()
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		c.close()
		return nil, err
	}
	if resp.StatusCode == http.StatusOK && path == "/v1/generate" {
		c.ok200++
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

func (c *client) generate(g genRequest) (*reply, error) {
	return c.do(http.MethodPost, "/v1/generate", g.body())
}

func (c *client) close() {
	if c.conn != nil {
		// The connection carries no buffered writes; a close error has
		// nothing to lose.
		_ = c.conn.Close()
		c.conn = nil
	}
}

// encodeResult renders a generation result exactly as serve's
// writeBody does, so a solo Synthesizer call can be compared byte for
// byte with a served reply.
func encodeResult(format string, res *core.GenerateResult) ([]byte, error) {
	var buf bytes.Buffer
	if format == "csv" {
		for _, m := range res.Matrices {
			if err := nprint.WriteCSV(&buf, m); err != nil {
				return nil, err
			}
		}
		return buf.Bytes(), nil
	}
	pw, err := pcap.NewWriter(&buf, pcap.LinkTypeEthernet)
	if err != nil {
		return nil, err
	}
	for _, fl := range res.Flows {
		for _, p := range fl.Packets {
			if err := pw.WritePacket(p.Timestamp, p.Data); err != nil {
				return nil, err
			}
		}
	}
	return buf.Bytes(), nil
}

// checkReply is the per-reply half of the correctness gate: status,
// framing headers, and a body that parses as what was asked for.
func checkReply(g genRequest, r *reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.80s", r.status, r.body)
	}
	if cl := r.header.Get("Content-Length"); cl != strconv.Itoa(len(r.body)) {
		return fmt.Errorf("Content-Length %q but body has %d bytes", cl, len(r.body))
	}
	if fl := r.header.Get("X-Traced-Flows"); fl != strconv.Itoa(g.Count) {
		return fmt.Errorf("X-Traced-Flows %q, asked for %d", fl, g.Count)
	}
	if g.Format == "csv" {
		if len(r.body) == 0 {
			return fmt.Errorf("empty csv body")
		}
		return nil
	}
	pr, err := pcap.NewReader(bytes.NewReader(r.body))
	if err != nil {
		return fmt.Errorf("pcap header: %w", err)
	}
	recs, err := pr.ReadAll()
	if err != nil {
		return fmt.Errorf("pcap records: %w", err)
	}
	if len(recs) == 0 {
		return fmt.Errorf("pcap holds no packets")
	}
	return nil
}
