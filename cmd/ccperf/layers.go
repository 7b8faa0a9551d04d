package main

import "fmt"

// layerMetrics are a traced run's per-layer numbers; notes annotate some of
// them in the human-readable output.
type layerMetrics struct {
	values map[string]float64
	notes  map[string]string
}

// computeLayers derives the per-layer metrics. Host times come from the
// untraced base phase; the traced phase's CPU profile only splits the base
// run time between layers, so tracing overhead does not leak into them.
// Both ran at one worker; parallel is the workload rerun at workers shard
// workers, for sharded workloads, and nil otherwise.
func computeLayers(base, traced, parallel *phase, samples []profSample, workers int) *layerMetrics {
	t, items := base.tally()
	runS := base.sumBest(func(s sample) float64 { return s.run })
	v := make(map[string]float64)
	notes := make(map[string]string)
	per := func(x float64) float64 { return ratio(x, float64(items)) }

	shares, runSamples := runShares(samples)
	for _, l := range layers {
		v[l+".self_ns_per_item"] = per(shares[l] * runS * 1e9)
	}
	notes["runtime.self_ns_per_item"] = fmt.Sprintf("  (%d run-span profile samples over %d items)", runSamples, items)

	v["sim.events_per_item"] = per(float64(t.events))
	v["sim.run_ns_per_event"] = ratio(runS*1e9, float64(t.events))
	v["coherence.remote_read_per_item"] = per(float64(t.remoteRead))
	v["coherence.remote_rfo_per_item"] = per(float64(t.remoteRFO))
	v["coherence.writebacks_per_item"] = per(float64(t.writebacks))
	v["coherence.stall_ns_per_item"] = per(t.stall.Nanoseconds())
	v["interconn.msgs_per_item"] = per(float64(t.linkMsgs))
	v["interconn.wire_bytes_per_item"] = per(float64(t.linkWire))
	v["device.pkts_per_nic_step"] = ratio(float64(t.upiPkts), float64(t.nicSteps))
	v["pcie.dma_ops_per_item"] = per(float64(t.dmaOps))
	v["pcie.wc_stalls_per_item"] = per(float64(t.wcStalls))
	if t.loopPoints > 0 {
		v["loopback.sim_mpps"] = t.loopMpps / float64(t.loopPoints)
		v["loopback.sim_p50_ns"] = t.loopLat.Median().Nanoseconds()
		v["loopback.sim_p99_ns"] = t.loopLat.Percentile(0.99).Nanoseconds()
	}
	if t.kvPoints > 0 {
		v["kvstore.sim_mops"] = t.kvMops / float64(t.kvPoints)
	}

	if t.clusterPoints > 0 {
		v["shard.events_per_item"] = per(float64(t.clusterEvents))
		if parallel != nil {
			parRunS := parallel.sumBest(func(s sample) float64 { return s.run })
			v["shard.cpu_per_wall"] = ratio(parallel.sumBest(func(s sample) float64 { return s.runCPU }), parRunS)
			v["shard.parallel_eff"] = ratio(runS, float64(workers)*parRunS)
		}
		v["fabric.forwarded"] = float64(t.forwarded)
		v["fabric.drops"] = float64(t.drops)
		v["fabric.wire_bytes_per_item"] = per(float64(t.fabricWire))
		v["cluster.rpcs_done"] = float64(t.rpcs)
		v["cluster.flow_delivered"] = float64(t.flows)
		v["cluster.sim_p99_ns"] = t.clusterP99.Nanoseconds()
		v["cluster.flow_p99_ns"] = t.flowP99.Nanoseconds()
	}

	v["go.allocs_per_item"] = per(base.sumBest(func(s sample) float64 { return s.allocs }))
	v["go.alloc_bytes_per_item"] = per(base.sumBest(func(s sample) float64 { return s.allocBytes }))
	v["go.gc_cycles"] = base.sumBest(func(s sample) float64 { return s.gcCycles })
	var gcCPU, busyCPU float64
	var spans []float64
	for _, res := range base.points {
		for _, s := range res.samples {
			gcCPU += s.gcCPU
			busyCPU += s.busyCPU
			spans = append(spans, s.span()*1e3)
		}
	}
	v["go.gc_cpu_frac"] = ratio(gcCPU, busyCPU)

	v["span.setup_s"] = base.sumBest(func(s sample) float64 { return s.setup })
	v["span.run_s"] = runS
	if len(spans) > 0 {
		q, label := highQuantile(len(spans))
		v["span.point_ms_p50"] = median(spans)
		v["span.point_ms_hi"] = quantile(spans, q)
		notes["span.point_ms_hi"] = fmt.Sprintf("  (%s of %d point spans)", label, len(spans))
	}
	v["span.calibration_us"] = median(base.cals) * 1e6
	v["trace.overhead_frac"] = ratio(traced.sumBest(func(s sample) float64 { return s.run }), runS) - 1
	return &layerMetrics{values: v, notes: notes}
}

// highQuantile picks the highest of p50/p90/p99/p99.9 that leaves at least
// ten of n samples beyond it (p50 when n < 20).
func highQuantile(n int) (float64, string) {
	for _, c := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}} {
		if float64(n)*(1-c.q) >= 10 {
			return c.q, c.label
		}
	}
	return 0.5, "p50"
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
