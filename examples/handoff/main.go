// Handoff study: the mobility problem the paper's related-work section
// opens with [Caceres & Iftode 94]. A mobile host crossing cells loses
// the packets queued at its old base station; plain TCP then waits out a
// retransmission timeout per crossing, while the fast-retransmit scheme
// (three duplicate acks sent right after reconnecting) resumes within a
// round trip.
//
//	go run ./examples/handoff
package main

import (
	"context"
	"fmt"
	"log"

	"wtcp/internal/experiment"
	"wtcp/internal/handoff"
)

func main() {
	// Handoff runs are deterministic, so one replication per point suffices.
	points, err := experiment.HandoffStudy(context.Background(),
		experiment.Options{Replications: 1}, experiment.HandoffOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiment.RenderHandoffTable(
		"1MB transfers across 2 Mbps cells, 100ms handoff gap", points))

	// One concrete pair, with the per-handoff cost spelled out.
	plain, err := handoff.Run(handoff.Defaults(handoff.Plain))
	if err != nil {
		log.Fatal(err)
	}
	fr, err := handoff.Run(handoff.Defaults(handoff.FastRetransmit))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dwell 1s: plain %.1fs (%d timeouts) vs fast-retransmit %.1fs (%d fast retransmits)\n",
		plain.Elapsed.Seconds(), plain.Timeouts, fr.Elapsed.Seconds(), fr.FastRetransmits)
	fmt.Printf("improvement: %.0f%% shorter transfer\n",
		100*(plain.Elapsed-fr.Elapsed).Seconds()/plain.Elapsed.Seconds())
}
