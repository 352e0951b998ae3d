package main

import (
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rads/internal/cluster"
	"rads/internal/gen"
	"rads/internal/partition"
	"rads/internal/rads"
	"rads/internal/snapshot"
)

// TestPingWhileLoadingIsNotRefused: a coordinator may ping a worker
// that is still loading its shards. That ping must fail as a transport
// error, which rads.Ping retries until the worker is up, and never with
// the worker's own "machine N is not hosted here", which rads.Ping takes
// as final.
func TestPingWhileLoadingIsNotRefused(t *testing.T) {
	dir := t.TempDir()
	part := partition.KWay(gen.Community(6, 10, 0.3, 1), 2, 7)
	snapDir := filepath.Join(dir, "snap")
	if err := snapshot.Write(snapDir, part, "test", nil); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	spec := cluster.ClusterSpec{Machines: []string{addr, addr}}
	specPath := filepath.Join(dir, "spec.json")
	js, _ := json.Marshal(spec)
	if err := os.WriteFile(specPath, js, 0o644); err != nil {
		t.Fatal(err)
	}

	coord := cluster.NewTCPClient(spec, nil)
	defer coord.Close()
	var during error
	openShards = func(dir string, ids []int, dsDirs ...string) ([]*partition.Partition, snapshot.Manifest, error) {
		_, during = rads.Ping(coord, 1, time.Now()) // one attempt
		return snapshot.OpenShards(dir, ids, dsDirs...)
	}
	defer func() { openShards = snapshot.OpenShards }()

	w, err := start(specPath, snapDir, "", addr, 1, "", "", time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if during == nil || errors.Is(during, cluster.ErrRemote) {
		t.Fatalf("a ping while the worker loads got %v, want a transport error", during)
	}
	for id := range spec.Machines {
		if _, err := rads.Ping(coord, id, time.Now().Add(5*time.Second)); err != nil {
			t.Errorf("machine %d once the worker is up: %v", id, err)
		}
	}
}
