// registerpressure demonstrates the architectural motivation of the
// paper (§1–2): a wide unclustered VLIW needs a monolithic register
// file whose size (MaxLives) and port count grow with the number of
// functional units, while the clustered machine divides both across
// small local files. It also shows the software lever on the same
// problem — Swing Modulo Scheduling (by one of the paper's authors)
// reaching the same II as IMS with fewer live values.
//
//	go run ./examples/registerpressure
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/ims"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/regpress"
	"repro/internal/sms"
)

func main() {
	lat := machine.DefaultLatencies()
	loops := perfect.CorpusN(perfect.DefaultSeed, 60)

	fmt.Println("register requirements, 60 corpus loops, 8-cluster-equivalent machine (24 FUs)")
	fmt.Println()

	var central, worstCluster, smsCentral int
	var imsII, smsII int
	for _, l := range loops {
		um := machine.Unclustered(8)
		g := ddg.FromLoop(l, lat)
		sIMS, stIMS, err := ims.ScheduleCtx(context.Background(), g, um, ims.Options{})
		if err != nil {
			log.Fatal(err)
		}
		sSMS, stSMS, err := sms.ScheduleCtx(context.Background(), g, um, sms.Options{})
		if err != nil {
			log.Fatal(err)
		}
		imsII += stIMS.II
		smsII += stSMS.II
		central += regpress.Analyze(sIMS).MaxLives
		smsCentral += regpress.Analyze(sSMS).MaxLives

		gc := ddg.FromLoop(l, lat)
		ddg.InsertCopies(gc, ddg.MaxUses)
		sDMS, _, err := core.ScheduleCtx(context.Background(), gc, machine.Clustered(8), core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		worstCluster += regpress.Analyze(sDMS).MaxPerCluster()
	}

	sampleU, _, err := ims.ScheduleCtx(context.Background(), ddg.FromLoop(loops[0], lat), machine.Unclustered(8), ims.Options{})
	if err != nil {
		log.Fatal(err)
	}
	gc := ddg.FromLoop(loops[0], lat)
	ddg.InsertCopies(gc, ddg.MaxUses)
	sampleC, _, err := core.ScheduleCtx(context.Background(), gc, machine.Clustered(8), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	central8, clustered8 := regpress.Analyze(sampleU), regpress.Analyze(sampleC)

	fmt.Printf("monolithic RF (IMS):        Σ MaxLives = %4d, %d read + %d write ports\n",
		central, central8.ReadPorts, central8.WritePorts)
	fmt.Printf("monolithic RF (SMS):        Σ MaxLives = %4d at the same total II (%d vs %d)\n",
		smsCentral, smsII, imsII)
	fmt.Printf("clustered, worst LRF (DMS): Σ MaxLives = %4d, %d read + %d write ports per cluster\n",
		worstCluster, clustered8.ClusterReadPorts, clustered8.ClusterWritePorts)
	fmt.Println()
	fmt.Printf("clustering keeps every register file at %.0f%% of the monolithic size\n",
		100*float64(worstCluster)/float64(central))
	fmt.Println("and at a fixed, small port count — the scalability argument of the paper.")
}
