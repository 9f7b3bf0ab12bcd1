// Command dms schedules a single loop with any registered scheduler
// (DMS by default) and prints the schedule, the queue register
// allocation, the generated VLIW code, and a simulation report.
//
// Compilation goes through the repro facade (repro.New), so this CLI,
// the library, the batch tool and the compile service all construct
// jobs through one audited path; schedulers are resolved by name
// through internal/driver, so every back-end added to the registry is
// immediately selectable here.
//
// Usage:
//
//	dms -kernel dot -clusters 4
//	dms -file loop.txt -clusters 8 -show all
//	dms -kernel fir4 -scheduler sms -clusters 2
//	dms -list
//	dms -list-schedulers
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"repro"
	api "repro/api/v1"
	"repro/internal/driver"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/perfect"
	"repro/internal/schedule"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dms: ")
	var (
		kernel      = flag.String("kernel", "", "built-in kernel name (see -list)")
		file        = flag.String("file", "", "loop file in the textual format")
		list        = flag.Bool("list", false, "list built-in kernels and exit")
		listScheds  = flag.Bool("list-schedulers", false, "list registered schedulers and exit")
		clusters    = flag.Int("clusters", 4, "number of clusters")
		machFile    = flag.String("machine", "", "machine description file (JSON); overrides -clusters for clustered schedulers")
		unclustered = flag.Bool("unclustered", false, "schedule on the equivalent unclustered machine (default scheduler: ims)")
		scheduler   = flag.String("scheduler", "", "scheduler name (see -list-schedulers); default dms, or ims with -unclustered")
		unroll      = flag.Int("unroll", 1, "unroll factor before scheduling")
		trip        = flag.Int("trip", 0, "override the loop's trip count")
		show        = flag.String("show", "sched", "what to print: sched, gantt, queues, code, sim, dot or all")
	)
	flag.Parse()

	if *list {
		for _, k := range perfect.Kernels() {
			fmt.Printf("%-12s %2d ops, trip %d\n", k.Name, k.NumOps(), k.Trip)
		}
		return
	}
	if *listScheds {
		for _, name := range driver.Names() {
			s, err := driver.Get(name)
			if err != nil {
				log.Fatal(err)
			}
			family := "unclustered"
			if s.Clustered() {
				family = "clustered"
			}
			fmt.Printf("%-10s %s\n", name, family)
		}
		return
	}
	l := loadLoop(*kernel, *file)
	if *trip > 0 {
		l.Trip = *trip
	}

	req := repro.Request{
		Loop:        l,
		Clusters:    *clusters,
		Scheduler:   *scheduler,
		Unclustered: *unclustered,
		Unroll:      *unroll,
	}
	if *machFile != "" {
		// Scheduler/machine family pairing is validated by the facade
		// and the back-end itself (which names the mismatch), so the
		// CLI only rejects the flag combination that is contradictory
		// on its face.
		if *unclustered {
			log.Fatal("-machine supplies an explicit target; it cannot be combined with -unclustered")
		}
		f, err := os.Open(*machFile)
		if err != nil {
			log.Fatal(err)
		}
		cm, err := machine.ReadConfig(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		req.Machine = cm
	}

	// Interrupts cancel the in-progress II search through the driver
	// context instead of killing the process mid-print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c, err := repro.New().Compile(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	s, st := c.Schedule, c.Stats
	fmt.Printf("%s on %s (%s): II=%d (MII %d), len=%d, stages=%d\n",
		l.Name, c.Machine.Name, c.Scheduler, st.II, st.MII, s.Len(), s.Stages())
	if extra := api.FormatExtra(st.Extra); extra != "" {
		fmt.Println(extra)
	}
	met := c.Metrics
	fmt.Printf("dynamic: trip=%d cycles=%d IPC=%.2f (useful ops %d, overhead ops %d)\n\n",
		met.Trip, met.Cycles, met.IPC, met.Useful, met.MovesIn)

	showAll := *show == "all"
	if *show == "sched" || showAll {
		printSchedule(s)
	}
	if *show == "gantt" || showAll {
		fmt.Println(schedule.Gantt(s))
	}
	if *show == "queues" || showAll {
		printQueues(c)
	}
	if *show == "code" || showAll {
		printCode(c)
	}
	if *show == "sim" || showAll {
		printSim(c)
	}
	if *show == "dot" {
		fmt.Print(s.Graph().Dot())
	}
}

func loadLoop(kernel, file string) *loop.Loop {
	switch {
	case kernel != "" && file != "":
		log.Fatal("use either -kernel or -file, not both")
	case kernel != "":
		l, err := perfect.KernelByName(kernel)
		if err != nil {
			log.Fatal(err)
		}
		return l
	case file != "":
		text, err := os.ReadFile(file)
		if err != nil {
			log.Fatal(err)
		}
		l, err := loop.ParseString(string(text))
		if err != nil {
			log.Fatal(err)
		}
		return l
	}
	log.Fatal("need -kernel, -file or -list")
	return nil
}

func printSchedule(s *schedule.Schedule) {
	g := s.Graph()
	ids := g.NodeIDs()
	sort.Slice(ids, func(i, j int) bool {
		pi, _ := s.At(ids[i])
		pj, _ := s.At(ids[j])
		if pi.Time != pj.Time {
			return pi.Time < pj.Time
		}
		if pi.Cluster != pj.Cluster {
			return pi.Cluster < pj.Cluster
		}
		return ids[i] < ids[j]
	})
	fmt.Println("schedule (time, cluster, op):")
	for _, id := range ids {
		p, _ := s.At(id)
		n := g.Node(id)
		fmt.Printf("  t=%3d  c%d  %-6s %-12s (%s)\n", p.Time, p.Cluster, n.Class, n.Name, n.Kind)
	}
	fmt.Println()
}

func printQueues(c *repro.Compiled) {
	alloc, err := c.Allocation()
	if err != nil {
		log.Fatal(err)
	}
	g := c.Schedule.Graph()
	fmt.Printf("queue register allocation: %d queues, max depth %d\n", alloc.TotalQueues(), alloc.MaxDepth())
	for _, f := range alloc.Files {
		fmt.Printf("  %s: %d queue(s)\n", f.Name(), len(f.Queues))
		for qi, q := range f.Queues {
			fmt.Printf("    q%d (depth %d):", qi, f.Depths[qi])
			for _, lt := range q {
				fmt.Printf(" %s→%s[%d,%d]", g.Node(lt.Producer).Name, g.Node(lt.Consumer).Name, lt.Write, lt.Read)
			}
			fmt.Println()
		}
	}
	fmt.Println()
}

func printCode(c *repro.Compiled) {
	p, err := c.Program()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(p.Render(c.Schedule))
	fmt.Println()
}

func printSim(c *repro.Compiled) {
	res, err := c.Simulate()
	if err != nil {
		log.Fatalf("simulation failed: %v", err)
	}
	fmt.Printf("simulation: %d cycles, %d pushes, %d pops, max queue depth %d, all queues drained\n",
		res.Cycles, res.Pushes, res.Pops, res.MaxQueueDepth)
	fmt.Printf("all %d store values matched the scalar reference execution\n\n", len(res.Stores))
}
