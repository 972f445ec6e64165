package main

import (
	"repro/internal/cluster"
	"repro/internal/dash"
	"repro/internal/ipsc"
	"repro/internal/jade"
	"repro/internal/obsv"
	"repro/internal/pgas"
)

// observedMachine builds one of the four machine models at its default
// locality level with the structured observer attached, and returns it
// with a function that snapshots the observer.
func observedMachine(machine string, procs int) (jade.Platform, func() *obsv.Snapshot) {
	obs := obsv.New(procs)
	snapshot := func() *obsv.Snapshot { return obs.Snapshot(0) }
	switch machine {
	case "dash":
		m := dash.New(dash.DefaultConfig(procs, dash.Locality))
		m.Sink = obs
		return m, snapshot
	case "ipsc":
		m := ipsc.New(ipsc.DefaultConfig(procs, ipsc.Locality))
		m.Sink = obs
		return m, snapshot
	case "pgas":
		m := pgas.New(pgas.DefaultConfig(procs, pgas.Affinity))
		m.Sink = obs
		return m, snapshot
	case "cluster":
		m := cluster.New(cluster.DefaultConfig(procs))
		m.Sink = obs
		return m, snapshot
	}
	panic("unknown machine " + machine)
}
