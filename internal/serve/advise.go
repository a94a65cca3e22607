package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"wtcp/internal/experiment"
	"wtcp/internal/scenario"
)

// GET /v1/advise is the paper's §4.1 deployment proposal as a service
// endpoint: given the currently observed wireless error characteristic
// (the mean bad-period length), return the packet size that maximizes
// measured throughput under it, with the full calibration column
// behind the recommendation. The calibration points are ordinary
// Figure 7 sweep points settled through the same shared point ledger
// as /v1/sweep, so an advise query warm-starts from any overlapping
// sweep campaign already computed — and refines the table by running
// only the sizes nobody has measured yet.

// AdviseEntry is one calibration row: a packet size and its mean
// measured throughput under the queried error characteristic.
type AdviseEntry struct {
	PacketSizeBytes int     `json:"packet_size_bytes"`
	ThroughputKbps  float64 `json:"throughput_kbps"`
}

// AdviseResponse is the GET /v1/advise success body.
type AdviseResponse struct {
	Fingerprint string `json:"fingerprint"`
	// MeanBad is the canonicalized queried bad-period ("4s").
	MeanBad                    string        `json:"mean_bad"`
	RecommendedPacketSizeBytes int           `json:"recommended_packet_size_bytes"`
	ThroughputKbps             float64       `json:"throughput_kbps"`
	Table                      []AdviseEntry `json:"table"`
	// Quarantined lists calibration sizes whose points tripped the
	// circuit breaker and therefore back no recommendation.
	Quarantined []string `json:"quarantined,omitempty"`
}

// adviseBody is the journal form of an advise query.
type adviseBody struct {
	Bad string `json:"bad"`
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	v := r.URL.Query().Get("bad")
	if v == "" {
		// ?ber= is accepted as an alias: operators observing a bit-error
		// rate express it as the mean bad-period it induces.
		v = r.URL.Query().Get("ber")
	}
	if v == "" {
		s.met.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, 0, errorBody{
			Error: "advise needs ?bad= (the observed mean bad-period, e.g. ?bad=4s)",
		})
		return
	}
	bad, err := scenario.ParsePositiveDur("bad", v)
	if err != nil || bad == 0 {
		s.met.badRequests.Add(1)
		if err == nil {
			err = fmt.Errorf("bad period must be a positive duration like \"4s\"")
		}
		writeError(w, http.StatusBadRequest, 0, errorBody{Error: err.Error()})
		return
	}
	s.serveQuery(w, r, s.adviseQuery(bad))
}

// adviseOptions is the option class advise calibration runs under.
func (s *Server) adviseOptions() experiment.Options {
	opt := s.cfg.Advise
	if len(opt.PacketSizes) == 0 {
		opt.PacketSizes = experiment.PacketSizes
	}
	return opt
}

// adviseQuery binds a parsed advise query into the serveQuery pipeline.
func (s *Server) adviseQuery(bad time.Duration) query {
	opt := s.adviseOptions()
	opt.BadPeriods = []time.Duration{bad}
	fp := fingerprintOf(struct {
		Kind    string `json:"kind"`
		Options string `json:"options"`
	}{"advise/v1", experiment.Fingerprint(opt)})
	body, err := json.Marshal(adviseBody{Bad: bad.String()})
	if err != nil {
		panic(fmt.Sprintf("serve: encode advise journal: %v", err))
	}
	return query{
		kind:        "advise",
		fp:          fp,
		class:       "advise",
		journalBody: body,
		exec: func(ctx context.Context) outcome {
			return s.execAdvise(ctx, bad, fp)
		},
	}
}

// execAdvise settles one Figure 7 calibration point per packet size
// (basic TCP — the advisor tunes the baseline, as §4.1 proposes) and
// recommends the throughput-maximizing size. The points settle on every
// free run slot (settleSpecs): the supervisor only keeps a breaker trip
// from failing the query, and the table and the quarantine list are
// read from the outcomes in packet-size order.
func (s *Server) execAdvise(ctx context.Context, bad time.Duration, fp string) outcome {
	opt := s.engineOptions(ctx, s.adviseOptions())
	opt.Supervise = experiment.NewSupervisor()
	led, err := s.pointLedger(opt)
	if err != nil {
		return outcome{
			status: http.StatusInternalServerError,
			body:   marshalError(errorBody{Error: err.Error(), Fingerprint: fp}),
			failed: true,
		}
	}
	specs := make([]experiment.PointSpec, len(opt.PacketSizes))
	for i, size := range opt.PacketSizes {
		specs[i] = experiment.PointSpec{Sweep: experiment.SweepFig7, Scheme: "basic", Bad: bad, Size: size}
	}
	outs, err := s.settleSpecs(ctx, led, opt, specs, s.adm.slotCount())
	if err != nil {
		return s.failureOutcome(ctx, fp, err)
	}
	resp := AdviseResponse{Fingerprint: fp, MeanBad: bad.String()}
	best := -1
	for i, out := range outs {
		size := specs[i].Size
		pr := pointResult(out)
		if pr.Quarantine != nil {
			resp.Quarantined = append(resp.Quarantined,
				fmt.Sprintf("%d bytes: %s (%s)", int(size), pr.Quarantine.Class, pr.Quarantine.Reason))
			continue
		}
		// Fig7 extract column 0 is ThroughputKbps; average the
		// replications like the figure generator does.
		var mean float64
		for _, rep := range pr.Replications {
			mean += rep.Values[0]
		}
		mean /= float64(len(pr.Replications))
		resp.Table = append(resp.Table, AdviseEntry{PacketSizeBytes: int(size), ThroughputKbps: mean})
		if best < 0 || mean > resp.Table[best].ThroughputKbps {
			best = len(resp.Table) - 1
		}
	}
	if best < 0 {
		return outcome{
			status: http.StatusUnprocessableEntity,
			body: marshalError(errorBody{
				Error:       "every calibration point quarantined; no recommendation is defensible",
				Fingerprint: fp,
			}),
			failed: true,
		}
	}
	resp.RecommendedPacketSizeBytes = resp.Table[best].PacketSizeBytes
	resp.ThroughputKbps = resp.Table[best].ThroughputKbps
	body, bad2, ok := marshalResponse(resp)
	if !ok {
		return bad2
	}
	return outcome{status: http.StatusOK, body: body, cacheable: true}
}
