//! The benchmark's declared names: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repo root is this table rendered (`bench manifest`); a test keeps the
//! two identical. README.md explains every row.

use std::fmt::Write as _;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as keyed in every result.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a change
    /// is rejected (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// The five workloads: `(name, why it exists)`.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "lib-traverse",
        "library BFS+SSSP on rmat14/torus96 over seq, par and cuda-sim: mxv/vxm, direction policy and frontiers do the work, serve/net none",
    ),
    (
        "lib-algebra",
        "library triangle count, PageRank, CC and MIS on rmat13/er13: masked mxm, eWise and reduce instead of traversal, so a traversal-only change predicts no move",
    ),
    (
        "serve-cold",
        "160 distinct queries cycled past a 128-entry cache over evented TCP, one in flight: every request crosses queue, worker, Engine::run, render and cache put",
    ),
    (
        "wire-hot",
        "64 pre-warmed queries, 2 connections x depth 32, all cache hits: the per-request floor of framer, JSON, parse, cache get and write; kernels idle",
    ),
    (
        "shard-burst",
        "2 shards restored from .gbsnap, fusable 16-query volleys, repeated tc/cc, one query_all and a reload per graph per round: router, fuse and writes beside reads",
    ),
];

/// The ten end-to-end metrics, measured with harness tracing off and
/// reported on every workload (README.md says what each means where).
///
/// Every bound is the contract's maximum. With every time put on the
/// reference host's clock (see `run`), ten runs of one commit on the
/// shared box, each with another seed, spread by 2–5 % (quartile distance
/// over median) on a day when the raw times spread by 10–25 %; the bound
/// leaves room for a worse day, on which the probe follows the host less
/// well. A smaller claim needs the paired protocol in the README.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("seq_mteps", "Medges/s", Better::Higher, 0.25),
    e2e("par_mteps", "Medges/s", Better::Higher, 0.25),
    e2e("cuda_host_mteps", "Medges/s", Better::Higher, 0.25),
    e2e("cuda_model_ms", "ms", Better::Lower, 0.25),
    e2e("qps", "1/s", Better::Higher, 0.25),
    e2e("latency_ms_p50", "ms", Better::Lower, 0.25),
    e2e("reload_ms_p50", "ms", Better::Lower, 0.25),
    e2e("rss_mb", "MB", Better::Lower, 0.25),
    e2e("ok_share", "ratio", Better::Higher, 0.01),
];

/// Per-layer metrics, reported by the traced run. No bounds.
pub const PER_LAYER: [MetricDef; 104] = [
    lo("graphgen.rmat_gen_ms", "ms"),
    lo("sparse.csr_build_ms", "ms"),
    lo("sparse.transpose_ms", "ms"),
    lo("sparse.densify_us", "us"),
    lo("sparse.sparsify_us", "us"),
    hi("sparse.gbsnap_encode_mb_s", "MB/s"),
    hi("sparse.gbsnap_decode_mb_s", "MB/s"),
    hi("backend-seq.vxm_sparse_mteps", "Medges/s"),
    hi("backend-seq.mxv_masked_mteps", "Medges/s"),
    hi("backend-seq.mxv_mteps", "Medges/s"),
    lo("backend-seq.mxm_masked_ms", "ms"),
    lo("backend-seq.ewise_add_ms", "ms"),
    lo("backend-seq.reduce_ms", "ms"),
    hi("backend-par.vxm_sparse_mteps", "Medges/s"),
    hi("backend-par.mxv_masked_mteps", "Medges/s"),
    hi("backend-par.mxv_mteps", "Medges/s"),
    lo("backend-par.mxm_masked_ms", "ms"),
    lo("backend-par.ewise_add_ms", "ms"),
    lo("backend-par.reduce_ms", "ms"),
    hi("backend-par.speedup_mxv", "ratio"),
    lo("backend-par.steal_share", "ratio"),
    hi("backend-par.busy_share", "ratio"),
    hi("backend-cuda.vxm_sparse_mteps", "Medges/s"),
    hi("backend-cuda.mxv_masked_mteps", "Medges/s"),
    hi("backend-cuda.mxv_mteps", "Medges/s"),
    lo("backend-cuda.mxm_masked_ms", "ms"),
    lo("backend-cuda.ewise_add_ms", "ms"),
    lo("backend-cuda.reduce_ms", "ms"),
    lo("gpu-sim.kernel_launches", "count"),
    lo("gpu-sim.mem_txns", "count"),
    lo("gpu-sim.h2d_bytes", "bytes"),
    lo("gpu-sim.d2h_bytes", "bytes"),
    lo("gpu-sim.launch_overhead_share", "ratio"),
    lo("gpu-sim.host_per_model_ratio", "ratio"),
    lo("gpu-sim.sort_pairs_host_ms", "ms"),
    lo("gpu-sim.scan_host_ms", "ms"),
    lo("gpu-sim.reduce_by_key_host_ms", "ms"),
    lo("core.dispatch_ns", "ns"),
    lo("core.policy_decide_ns", "ns"),
    lo("core.transpose_hit_ns", "ns"),
    lo("core.transpose_miss_ms", "ms"),
    hi("core.transpose_hit_share", "ratio"),
    hi("core.pull_level_share", "ratio"),
    lo("core.rep_switches", "count"),
    lo("algorithms.bfs_ms_p50", "ms"),
    lo("algorithms.sssp_ms_p50", "ms"),
    lo("algorithms.bfs_grid_ms_p50", "ms"),
    lo("algorithms.pagerank_ms_p50", "ms"),
    lo("algorithms.triangle_ms_p50", "ms"),
    lo("algorithms.cc_ms_p50", "ms"),
    lo("algorithms.mis_ms_p50", "ms"),
    lo("algorithms.bfs_levels", "count"),
    lo("algorithms.sssp_rounds", "count"),
    lo("algorithms.pagerank_iters", "count"),
    lo("algorithms.pattern_matrix_ms", "ms"),
    hi("algorithms.kernel_share", "ratio"),
    hi("algorithms.multi_bfs32_speedup", "ratio"),
    lo("util.json_parse_ns", "ns"),
    lo("metrics.observe_ns", "ns"),
    lo("xray.unsampled_ns", "ns"),
    lo("xray.span_ns", "ns"),
    lo("trace.span_record_ns", "ns"),
    lo("net.framer_ns_per_line", "ns"),
    lo("net.evented_rtt_us_p50", "us"),
    lo("net.threaded_rtt_us_p50", "us"),
    hi("net.ping_pipelined_qps", "1/s"),
    lo("net.bytes_out_per_req", "bytes"),
    lo("net.backpressure_events", "count"),
    lo("fuse.push_pop_ns", "ns"),
    hi("fuse.batch_size_mean", "count"),
    hi("fuse.fused_share", "ratio"),
    lo("fuse.solo_delay_us", "us"),
    lo("serve.parse_request_ns", "ns"),
    lo("serve.cache_get_hit_ns", "ns"),
    lo("serve.pool_inline_ns", "ns"),
    lo("serve.cache_put_ns", "ns"),
    lo("serve.engine_run_ms_p50", "ms"),
    lo("serve.render_share", "ratio"),
    lo("serve.pool_handoff_us_p50", "us"),
    lo("serve.queue_wait_us_p50", "us"),
    lo("serve.execute_us_p50", "us"),
    lo("serve.serialize_us_p50", "us"),
    hi("serve.cache_hit_share", "ratio"),
    lo("serve.rejected_share", "ratio"),
    lo("serve.catalog_load_ms", "ms"),
    lo("serve.snapshot_write_ms", "ms"),
    lo("serve.snapshot_read_ms", "ms"),
    lo("shard.placement_ns", "ns"),
    lo("shard.forward_overhead_us_p50", "us"),
    lo("shard.scatter_ms_p50", "ms"),
    lo("shard.imbalance", "ratio"),
    lo("shard.restore_ms", "ms"),
    lo("client.latency_ms_p95", "ms"),
    lo("client.latency_ms_p99", "ms"),
    hi("client.samples", "count"),
    lo("client.cpu_share", "ratio"),
    lo("client.host_spin_drift", "ratio"),
    lo("client.trace_overhead_share", "ratio"),
    lo("client.ladder_residual_share", "ratio"),
    hi("ladder.kernel_share", "ratio"),
    lo("ladder.render_share", "ratio"),
    lo("ladder.pool_share", "ratio"),
    lo("ladder.shard_share", "ratio"),
    lo("ladder.net_share", "ratio"),
];

/// How long one driver run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json() -> String {
    let esc = gbtl_util::json::escape;
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--bin\", \"bench\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            esc(name),
            esc(why)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (w, why) in WORKLOADS {
            assert!(name_ok(w), "{w}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{w}: why too long");
            assert!(seen.insert(w), "duplicate {w}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = crate::repo_root().join("BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert_eq!(
            on_disk,
            manifest_json(),
            "BENCHMARK.json is stale: regenerate it with `bench manifest`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        gbtl_util::json::parse(&on_disk).expect("BENCHMARK.json parses");
    }
}
