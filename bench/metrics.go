package main

// def names a metric the harness emits; BENCHMARK.json lists the same
// names (the smoke test holds the two together).
type def struct{ name, unit string }

// endToEnd is what a user of the system sees, measured with tracing off
// and emitted by every workload.
var endToEnd = []def{
	{"setup_s", "s"},
	{"interval_ms_p50", "ms"},
	{"interval_ms_p90", "ms"},
	{"members_per_s", "1/s"},
	{"mem_bytes_per_member", "B"},
	{"allocs_per_member", "count"},
}

// perLayer is the traced run's ledger. The first block holds the
// end-to-end metrics that do not exist on every plane or can read 0
// (the benchmark contract wants every end-to-end metric on every
// workload and never 0), the second each layer's self time per
// interval, the rest the layer counters and probes.
var perLayer = []def{
	{"failed_share", "ratio"},
	{"multicast_share", "ratio"},
	{"rekey_ms_p50", "ms"},
	{"encs_per_interval", "count"},
	{"traced_interval_ms_p50", "ms"},
	{"trace_overhead_ratio", "ratio"},
	{"trace_self_share", "ratio"},

	{"overlay.self_ms", "ms"},
	{"keytree.self_ms", "ms"},
	{"split.self_ms", "ms"},
	{"tmesh.self_ms", "ms"},
	{"core.self_ms", "ms"},
	{"rekeyd.self_ms", "ms"},
	{"transport.self_ms", "ms"},
	{"harness.self_ms", "ms"},

	{"overlay.leave_us", "us"},
	{"overlay.join_us", "us"},
	{"keytree.mark_ms", "ms"},
	{"keytree.regen_ms", "ms"},
	{"keytree.pathkeys_us", "us"},
	{"keytree.apply_us_per_member", "us"},
	{"keytree.regen_allocs", "count"},
	{"keycrypt.wrap_ns", "ns"},
	{"keycrypt.unwrap_ns", "ns"},
	{"keycrypt.wrap_allocs", "count"},
	{"split.compile_ms", "ms"},
	{"split.hop_ns", "ns"},
	{"split.recv_encs_per_member", "count"},
	{"split.fwd_encs_per_member", "count"},
	{"tmesh.deliver_ms", "ms"},
	{"tmesh.hops_per_interval", "count"},
	{"tmesh.allocs_per_hop", "count"},
	{"core.apply_ms", "ms"},
	{"core.apply_allocs_per_member", "count"},
	{"wire.marshal_ns_per_enc", "ns"},
	{"wire.unmarshal_ns_per_enc", "ns"},
	{"wire.bytes_per_enc", "B"},
	{"wire.marshal_allocs", "count"},
	{"transport.frames_per_interval", "count"},
	{"transport.bytes_per_member", "B"},
	{"transport.send_us", "us"},
	{"transport.oneway_us_p50", "us"},
	{"transport.oneway_us_p99", "us"},
	{"transport.send_errors", "count"},
	{"transport.addpeer_us", "us"},
	{"transport.loopback.pingpong_us.ack", "us"},
	{"transport.loopback.pingpong_us.rekey", "us"},
	{"transport.loopback.fanout_frames_per_s.ack", "1/s"},
	{"transport.loopback.fanout_frames_per_s.rekey", "1/s"},
	{"transport.udp.pingpong_us.ack", "us"},
	{"transport.udp.pingpong_us.rekey", "us"},
	{"transport.udp.fanout_frames_per_s.ack", "1/s"},
	{"transport.udp.fanout_frames_per_s.rekey", "1/s"},
	{"transport.tcp.pingpong_us.ack", "us"},
	{"transport.tcp.pingpong_us.rekey", "us"},
	{"transport.tcp.fanout_frames_per_s.ack", "1/s"},
	{"transport.tcp.fanout_frames_per_s.rekey", "1/s"},
	{"rekeyd.distribute_ms", "ms"},
	{"rekeyd.bringup_us_per_joiner", "us"},
	{"rekeyd.level_arrival_ms.1", "ms"},
	{"rekeyd.level_arrival_ms.2", "ms"},
	{"rekeyd.level_arrival_ms.3", "ms"},
	{"rekeyd.level_arrival_ms.4", "ms"},
	{"rekeyd.ack_spread_ms", "ms"},
	{"rekeyd.unicasts_per_straggler", "count"},
	{"rekeyd.resyncs_per_interval", "count"},
	{"rekeyd.dead_in_flight", "count"},
}

// spanMetrics fills the per-call metrics that are a plain reading of
// the spans, whichever workload recorded them.
func spanMetrics(tr *tracer, expected int64, m metricSet) {
	perCall := func(metric, unit, spanName string, conv func([]float64) float64) {
		ds := tr.durations(spanName)
		vals := make([]float64, len(ds))
		for i, d := range ds {
			if unit == "us" {
				vals[i] = us(d)
			} else {
				vals[i] = ms(d)
			}
		}
		m.put(metric, unit, conv(vals), len(vals))
	}
	perCall("overlay.leave_us", "us", "overlay.leave", mean)
	perCall("overlay.join_us", "us", "overlay.join", mean)
	perCall("keytree.pathkeys_us", "us", "keytree.pathkeys", mean)
	perCall("keytree.mark_ms", "ms", "keytree.mark", median)
	perCall("keytree.regen_ms", "ms", "keytree.regen", median)
	perCall("core.apply_ms", "ms", "core.apply", median)
	perCall("split.compile_ms", "ms", "split.compile", median)
	perCall("rekeyd.distribute_ms", "ms", "rekeyd.distribute", median)
	perCall("rekeyd.bringup_us_per_joiner", "us", "rekeyd.bringup", mean)
	regens := len(tr.durations("keytree.regen"))
	m.put("keytree.regen_allocs", "count", ratio(float64(tr.allocs["keytree.regen"]), float64(regens)), regens)
	m.put("core.apply_allocs_per_member", "count", ratio(float64(tr.allocs["core.apply"]), float64(expected)), regens)
}
