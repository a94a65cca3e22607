package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"wtcp/internal/experiment"
	"wtcp/internal/serve"
)

// adviseFlags declares wtcp advise, which builds the paper's §4.1
// deployment artifact: the fixed table a base station keeps, mapping a
// wireless error characteristic (mean bad-period length) to the "good"
// wired packet size for it. It calibrates by simulation sweeps, under the
// execution flags, and can then answer point queries.
//
//	wtcp advise                      # calibrate and print the table
//	wtcp advise -query 2.5s          # calibrate, then recommend for 2.5s fades
//	wtcp advise -reps 10 -csv        # higher-confidence calibration, CSV out
//
// With -server it skips local calibration and asks a running wtcp serve,
// whose content-addressed cache and shared point ledgers make repeat
// and overlapping queries nearly free:
//
//	wtcp advise -server http://127.0.0.1:8787 -query 2.5s
func adviseFlags(fs *flag.FlagSet) body {
	var (
		query  = fs.Duration("query", 0, "optionally recommend a packet size for this mean bad period")
		csv    = fs.Bool("csv", false, "emit the table as CSV")
		server = fs.String("server", "", "query a running wtcp serve (base URL) instead of calibrating locally")
	)
	return func(ctx context.Context, opt experiment.Options, stdout, _ io.Writer) error {
		if *server != "" {
			return adviseRemote(ctx, stdout, *server, *query, *csv)
		}
		advisor, err := experiment.CalibrateAdvisor(ctx, opt)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Fprint(stdout, experiment.AdvisorTable.CSV(advisor.Table()))
		} else {
			fmt.Fprintln(stdout, "packet-size advisory table (basic TCP, wide-area preset):")
			fmt.Fprint(stdout, experiment.AdvisorTable.Markdown(advisor.Table()))
		}
		if *query > 0 {
			size := advisor.Recommend(*query)
			fmt.Fprintf(stdout, "recommended packet size for %v fades: %s\n", *query, size)
		}
		return nil
	}
}

// adviseRemote asks a server for the advisory column of one error
// characteristic. The server settles only the calibration points nobody
// has computed yet (sweep campaigns and earlier advise queries share
// its point ledgers), so this is cheap against a warm server.
func adviseRemote(ctx context.Context, stdout io.Writer, base string, query time.Duration, csv bool) error {
	if query <= 0 {
		return fmt.Errorf("-server needs -query (the observed mean bad period, e.g. -query 2.5s)")
	}
	u, err := url.Parse(base)
	if err != nil {
		return fmt.Errorf("parse -server: %w", err)
	}
	u = u.JoinPath("/v1/advise")
	u.RawQuery = url.Values{"bad": {query.String()}}.Encode()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	adv, err := adviseReply(resp.StatusCode, body)
	if err != nil {
		return err
	}

	if csv {
		fmt.Fprintln(stdout, "packet_size_bytes,throughput_kbps")
		for _, e := range adv.Table {
			fmt.Fprintf(stdout, "%d,%.2f\n", e.PacketSizeBytes, e.ThroughputKbps)
		}
	} else {
		fmt.Fprintf(stdout, "advisory column for %s fades (server %s, cache %s):\n",
			adv.MeanBad, base, resp.Header.Get("X-Wtcpd-Cache"))
		for _, e := range adv.Table {
			fmt.Fprintf(stdout, "  %-6d -> %.2f Kbps\n", e.PacketSizeBytes, e.ThroughputKbps)
		}
		for _, q := range adv.Quarantined {
			fmt.Fprintf(stdout, "  quarantined: %s\n", q)
		}
	}
	fmt.Fprintf(stdout, "recommended packet size for %s fades: %d bytes (%.2f Kbps)\n",
		adv.MeanBad, adv.RecommendedPacketSizeBytes, adv.ThroughputKbps)
	return nil
}

// adviseReply reads a /v1/advise reply: a non-200 status is an error
// naming it (and the server's message, when the body carries one), and
// a 200 body decodes into a recommendation or is refused. A success
// always carries its calibration table, so one without is refused too.
func adviseReply(status int, body []byte) (serve.AdviseResponse, error) {
	if status != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return serve.AdviseResponse{}, fmt.Errorf("wtcpd: %s (HTTP %d)", e.Error, status)
		}
		return serve.AdviseResponse{}, fmt.Errorf("wtcpd: HTTP %d", status)
	}
	var adv serve.AdviseResponse
	if err := json.Unmarshal(body, &adv); err != nil {
		return serve.AdviseResponse{}, fmt.Errorf("decode wtcpd response: %w", err)
	}
	if len(adv.Table) == 0 {
		return serve.AdviseResponse{}, fmt.Errorf("decode wtcpd response: no calibration table")
	}
	return adv, nil
}
