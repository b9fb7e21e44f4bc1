package beesim_test

import (
	"fmt"
	"log"
	"time"

	"beesim"
)

// The placement question for a single apiary: where should 500 hives run
// their queen-detection model?
func ExampleRecommend() {
	svc, err := beesim.NewService(beesim.CNN, beesim.DefaultPeriod)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := beesim.Recommend(500, beesim.DefaultServer(35), svc, beesim.Losses{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placement: %v\n", rec.Placement)
	fmt.Printf("edge: %.1f J/hive/cycle, edge+cloud: %.1f J/hive/cycle\n",
		float64(rec.EdgeOnlyPerClient), float64(rec.EdgeCloudPerClient))
	// Output:
	// placement: edge+cloud
	// edge: 367.5 J/hive/cycle, edge+cloud: 361.6 J/hive/cycle
}

// The per-cycle cost profile of the paper's Tables I and II.
func ExampleNewService() {
	svc, err := beesim.NewService(beesim.SVM, beesim.DefaultPeriod)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", svc.Name)
	fmt.Printf("edge scenario:       %.1f J per cycle\n", float64(svc.EdgeOnlyCycle))
	fmt.Printf("edge+cloud scenario: %.1f J per cycle at the hive\n", float64(svc.EdgeCloudCycle))
	// Output:
	// queen detection (SVM)
	// edge scenario:       366.3 J per cycle
	// edge+cloud scenario: 322.0 J per cycle at the hive
}

// Figure 3's question: what does a wake-up period cost in average power?
func ExampleAveragePower() {
	for _, minutes := range []int{5, 120} {
		p := beesim.AveragePower(time.Duration(minutes) * time.Minute)
		fmt.Printf("every %3d min: %.2f W\n", minutes, float64(p))
	}
	// Output:
	// every   5 min: 1.19 W
	// every 120 min: 0.65 W
}

// Allocating a fleet onto servers with the paper's sequential policy.
func ExampleAllocate() {
	svc, err := beesim.NewService(beesim.CNN, beesim.DefaultPeriod)
	if err != nil {
		log.Fatal(err)
	}
	alloc, err := beesim.Allocate(400, beesim.DefaultServer(10), svc,
		beesim.Losses{}, beesim.FillSequential)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("servers: %d\n", alloc.NumServers())
	fmt.Printf("first server carries %d hives\n", alloc.Servers[0].Clients())
	// Output:
	// servers: 3
	// first server carries 180 hives
}
