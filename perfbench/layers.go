package main

// layerMetrics combines the traced replay with the untraced run's
// counters. unattributed_ms is the untraced latency_p50_ms minus every
// per-request layer time (pass self times, the timed layers and queue
// wait), so the layers and it add up to latency_p50_ms exactly; it is
// negative when the layers' per-request means exceed the median request.
func layerMetrics(run *Run, v *Verdicts, l *Layers) map[string]float64 {
	out := map[string]float64{}
	per := func(x float64) float64 { return ratio(x, float64(l.Requests)) }
	var passMS, elimMS float64
	for _, p := range qbfPasses {
		pt := l.Passes["qbf."+p]
		out["qbf."+p+".ms"], out["qbf."+p+".runs"] = per(pt.MS), per(float64(pt.Runs))
		passMS += pt.MS
	}
	for _, p := range corePasses {
		pt := l.Passes["core."+p]
		out["core."+p+".self_ms"], out["core."+p+".runs"] = per(pt.MS), per(float64(pt.Runs))
		passMS += pt.MS
		if p == "elimset" || p == "thm1" || p == "thm2" {
			elimMS += pt.MS
		}
	}
	attributed := per(passMS)
	for _, name := range timeLayers {
		out[name] = per(l.MS[name])
		attributed += out[name]
	}
	out["core.elim_share"] = ratio(elimMS, passMS)
	out["aig.sweep.sat_calls"] = per(l.SatCalls)
	out["aig.sweep.merge_ratio"] = ratio(l.Merged, l.SatCalls)
	out["oracle.queries"] = per(l.Queries)
	out["oracle.incremental_ratio"] = ratio(l.Incremental, l.Queries)
	out["oracle.rebuilds"] = per(l.Rebuilds)
	out["aig.peak_nodes"] = float64(l.PeakNodes)

	if st := run.Stats; st != nil {
		out["service.cache_hit_ratio"] = ratio(float64(st.CacheHits), float64(st.Submitted))
		out["service.store_hit_ratio"] = ratio(float64(st.StoreHits), float64(st.Submitted))
		out["service.retries"] = float64(st.Retries)
		out["service.errors"] = float64(st.Errors)
	}
	out["service.queue_wait_ms"] = queueWait(run, v)
	attributed += out["service.queue_wait_ms"]
	if c := run.Cluster; c != nil {
		out["cube.fan_ratio"] = ratio(float64(c.Coordinator.CubeSplits), float64(v.Attempted))
		out["cube.short_circuit_ratio"] = ratio(float64(c.Coordinator.CubeUnsatShortCircuits), float64(c.Coordinator.CubeSplits))
		out["cluster.failovers"] = float64(c.Coordinator.Failovers)
		out["cluster.overhead_ms"] = forwardOverhead(run, v)
	}
	lat := latencies(run, v)
	byClass := map[string][]float64{}
	for i, c := range v.Class {
		byClass[c] = append(byClass[c], lat[i])
	}
	for _, c := range []string{"cold", "store", "hot"} {
		out[c+"_p50_ms"] = percentile(byClass[c], 0.5)
	}
	out["unattributed_ms"] = endToEndMetrics(run, v)["latency_p50_ms"] - attributed
	return out
}

// queueWait is the mean time jobs waited for a worker: over the answers'
// job snapshots for hqsd, over the workers' job histories for the cluster
// (whose fan answers the coordinator synthesizes).
func queueWait(run *Run, v *Verdicts) float64 {
	var sum, n float64
	switch run.Workload {
	case "serve-mix":
		for i, rep := range v.Replies {
			if v.OK[i] {
				sum += float64(rep.QueueWaitMS)
				n++
			}
		}
	case "cluster-cube":
		for _, j := range run.WorkerJobs {
			sum += float64(j.QueueWaitMS)
			n++
		}
	}
	return ratio(sum, n)
}

// forwardOverhead is the mean client latency of plain forwards beyond the
// worker-reported queue wait and solve time: the coordinator's parse, hash,
// readiness probe and ring walk, the second HTTP hop and both encodings.
func forwardOverhead(run *Run, v *Verdicts) float64 {
	var sum, n float64
	for i, s := range run.Samples {
		if s.Req.Class == "plain" && v.OK[i] {
			rep := v.Replies[i]
			sum += ms(s.Latency) - float64(rep.QueueWaitMS+rep.SolveTimeMS)
			n++
		}
	}
	return ratio(sum, n)
}
