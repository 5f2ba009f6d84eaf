// Webservice: the §VII proof of concept end to end through the public
// facade. The built-in cluster-smoke suite runs on the "cluster" backend:
// each scenario boots a replicated key-value service of four MinBFT
// replicas over loopback TCP, a seeded attacker walks the Table 6
// campaigns against it, and the two-level controller — the same one the
// emulation steps through — restarts compromised replicas for real (the
// USIG counter survives in the trusted domain) and evicts crashed ones
// through consensus. A probe client writes to the service every control
// step, so availability and latency are measured, not modeled.
//
// The seeded schedule (intrusions, recoveries, evictions, additions) is the
// same on every run; the wall-clock measurements vary.
//
//	go run ./examples/webservice
package main

import (
	"context"
	"fmt"
	"log"

	"tolerance"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tel := tolerance.NewTelemetry()
	fmt.Println("running cluster-smoke: live MinBFT replica groups under attack")
	report, err := tolerance.RunSuite(context.Background(),
		tolerance.SuiteByName("cluster-smoke"),
		tolerance.WithWorkers(1),
		tolerance.WithTelemetry(tel),
		tolerance.WithRecordHandler(func(rec tolerance.ScenarioRecord) error {
			m := rec.Metrics
			fmt.Printf("  scenario %d %-10s intrusions %2d  recoveries %2d  evictions %d  additions %d  T(A) %.2f\n",
				rec.Index, rec.Strategy, m.Intrusions, m.Recoveries, m.Evictions, m.Additions, m.Availability)
			return nil
		}),
	)
	if err != nil {
		return err
	}

	c := tel.Snapshot().Counters
	fmt.Printf("\n%d scenarios on live replicas: %d replica restarts, %d crashes, %d evictions\n",
		report.Scenarios, c["cluster.replica_restarts"], c["cluster.replica_crashes"], c["cluster.evictions"])
	fmt.Printf("probe writes: %d committed, %d failed\n", c["cluster.probe_ok"], c["cluster.probe_failures"])

	// The schedule must really have hit the cluster: intrusions happened,
	// recovery decisions restarted real replica processes, and the service
	// committed client writes.
	switch {
	case c["cluster.intrusions"] < 1:
		return fmt.Errorf("no intrusion reached the cluster")
	case c["cluster.replica_restarts"] < 1:
		return fmt.Errorf("no recovery restarted a replica process")
	case c["cluster.probe_ok"] < 1:
		return fmt.Errorf("the service committed no client write")
	}
	fmt.Println("intrusions were detected and compromised replicas restarted on the live service")
	return nil
}
