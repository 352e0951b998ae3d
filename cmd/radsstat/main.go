// Command radsstat profiles a dataset and its partition the way the
// paper's Table 1 profiles the evaluation graphs, then reports the
// partition-quality numbers behind the Exp-1 narrative: edge cut,
// border fraction, and the fraction of vertices eligible for
// single-machine enumeration at each query-vertex span.
//
// With -addr it is instead the fleet CLI of a running cluster-mode
// deployment: it fetches the coordinator's /debug/cluster summary and
// prints one row per worker machine (up, heartbeat age, cache hit
// ratio, snapshot fingerprint) — the curl+jq loop as one command.
//
// Usage:
//
//	radsstat -dataset RoadNet -machines 10
//	radsstat -graph edges.txt -machines 4 -partitioner hash
//	radsstat -addr http://localhost:8080
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"rads/internal/gen"
	"rads/internal/harness"
	"rads/internal/partition"
	"rads/internal/rads"
)

func main() {
	var (
		dataset     = flag.String("dataset", "DBLP", "built-in dataset analog (RoadNet DBLP LiveJournal UK2002)")
		graphFile   = flag.String("graph", "", "edge-list file overriding -dataset")
		machines    = flag.Int("machines", 10, "number of simulated machines")
		scale       = flag.Float64("scale", 1.0, "dataset scale factor")
		partitioner = flag.String("partitioner", "kway", "partitioner (kway hash)")
		maxSpan     = flag.Int("max-span", 4, "largest span to report SM-E eligibility for")
		addr        = flag.String("addr", "", "coordinator base URL: print the cluster fleet table from /debug/cluster instead of profiling a dataset")
	)
	flag.Parse()
	if *addr != "" {
		if err := runFleet(*addr); err != nil {
			fmt.Fprintln(os.Stderr, "radsstat:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*dataset, *graphFile, *machines, *scale, *partitioner, *maxSpan); err != nil {
		fmt.Fprintln(os.Stderr, "radsstat:", err)
		os.Exit(1)
	}
}

// runFleet fetches /debug/cluster from a cluster-mode coordinator and
// renders the fleet table.
func runFleet(addr string) error {
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/debug/cluster")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		if e.Error != "" {
			return fmt.Errorf("%s/debug/cluster: %s", base, e.Error)
		}
		return fmt.Errorf("%s/debug/cluster: HTTP %d", base, resp.StatusCode)
	}
	var sum rads.ClusterSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		return fmt.Errorf("decoding /debug/cluster: %w", err)
	}

	health := "healthy"
	if !sum.Healthy {
		health = "DEGRADED"
	}
	fmt.Printf("cluster: %d machines, %s\n", sum.Machines, health)
	fmt.Printf("%-8s %-5s %-14s %-11s %s\n",
		"machine", "up", "heartbeat_age", "cache_ratio", "fingerprint")
	for _, w := range sum.Workers {
		up := "yes"
		if !w.Up {
			up = "NO"
		}
		age := "never"
		if w.HeartbeatAgeSeconds >= 0 {
			age = fmt.Sprintf("%.1fs", w.HeartbeatAgeSeconds)
		}
		ratio := "-"
		if w.CacheHitRatio >= 0 {
			ratio = fmt.Sprintf("%.1f%%", 100*w.CacheHitRatio)
		}
		fp := w.Fingerprint
		if fp == "" && w.StatsError != "" {
			fp = "(" + w.StatsError + ")"
		}
		fmt.Printf("%-8d %-5s %-14s %-11s %s\n",
			w.Machine, up, age, ratio, fp)
	}
	return nil
}

func run(dataset, graphFile string, machines int, scale float64, partitioner string, maxSpan int) error {
	g, _, _, err := harness.LoadStore(graphFile, dataset, "", scale)
	if err != nil {
		return err
	}
	name := dataset
	if graphFile != "" {
		name = graphFile
	}

	fmt.Println(gen.Profile(name, g))

	var part *partition.Partition
	switch partitioner {
	case "kway":
		part = partition.KWay(g, machines, 7)
	case "hash":
		part = partition.Hash(g, machines)
	default:
		return fmt.Errorf("unknown partitioner %q (kway or hash)", partitioner)
	}
	fmt.Printf("partition (%s): %s\n", partitioner, partition.Measure(part))

	fmt.Println("SM-E eligible fraction by starting-vertex span (Proposition 1):")
	for span := 1; span <= maxSpan; span++ {
		fmt.Printf("  span %d: %5.1f%%\n", span, 100*partition.SMEFraction(part, span))
	}

	const maxD = 8
	hist := BorderHistogramString(part, maxD)
	fmt.Println("border distance distribution:")
	fmt.Print(hist)
	return nil
}

// BorderHistogramString renders the border-distance histogram with one
// line per distance and a crude bar chart.
func BorderHistogramString(part *partition.Partition, maxD int) string {
	hist := partition.BorderDistanceHistogram(part, maxD)
	total := 0
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return "  (empty graph)\n"
	}
	out := ""
	for d, c := range hist {
		frac := float64(c) / float64(total)
		bar := ""
		for i := 0; i < int(frac*50); i++ {
			bar += "#"
		}
		label := fmt.Sprintf("%d", d)
		if d == maxD {
			label = fmt.Sprintf(">=%d", maxD)
		}
		out += fmt.Sprintf("  %-4s %6.1f%% %s\n", label, 100*frac, bar)
	}
	return out
}
