//! Per-kernel profiling reports — the `nvprof`-style view of a traced run.

use std::cmp::Reverse;
use std::collections::HashMap;

use crate::GpuStats;

/// Aggregated statistics for one kernel name.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSummary {
    /// Kernel name.
    pub name: &'static str,
    /// Number of launches.
    pub launches: usize,
    /// Total warp instructions across launches.
    pub warp_instructions: u64,
    /// Total memory transactions across launches.
    pub mem_transactions: u64,
    /// Total atomic operations across launches.
    pub atomic_ops: u64,
    /// Total modeled time in picoseconds.
    pub modeled_ps: u64,
}

/// Aggregate a traced run's kernel log by kernel name, sorted by total
/// modeled time (descending), then by name — the "where did the time go"
/// table, in one order whatever the hasher.
///
/// Requires the device to have been created with
/// [`Gpu::with_trace`](crate::Gpu::with_trace); an untraced run returns an
/// empty report.
pub fn kernel_report(stats: &GpuStats) -> Vec<KernelSummary> {
    let mut by_name: HashMap<&'static str, KernelSummary> = HashMap::new();
    for rec in &stats.kernel_log {
        let e = by_name.entry(rec.name).or_insert(KernelSummary {
            name: rec.name,
            launches: 0,
            warp_instructions: 0,
            mem_transactions: 0,
            atomic_ops: 0,
            modeled_ps: 0,
        });
        e.launches += 1;
        e.warp_instructions += rec.tally.warp_instructions;
        e.mem_transactions += rec.tally.mem_transactions;
        e.atomic_ops += rec.tally.atomic_ops;
        e.modeled_ps += rec.modeled_ps;
    }
    let mut out: Vec<KernelSummary> = by_name.into_values().collect();
    out.sort_by_key(|k| (Reverse(k.modeled_ps), k.name));
    out
}

/// Flatten device statistics into ordered `(key, value)` pairs for
/// embedding in external reports (the `gbtl-trace` backend section):
/// cumulative counters first, then one row per kernel name when the device
/// was created with [`Gpu::with_trace`](crate::Gpu::with_trace).
pub fn stats_pairs(stats: &GpuStats) -> Vec<(String, String)> {
    let mut pairs = vec![
        (
            "kernels launched".into(),
            stats.kernels_launched.to_string(),
        ),
        (
            "warp instructions".into(),
            stats.warp_instructions.to_string(),
        ),
        (
            "mem transactions".into(),
            stats.mem_transactions.to_string(),
        ),
        ("atomic ops".into(), stats.atomic_ops.to_string()),
        (
            "h2d".into(),
            format!("{} B in {} transfers", stats.bytes_h2d, stats.h2d_transfers),
        ),
        (
            "d2h".into(),
            format!("{} B in {} transfers", stats.bytes_d2h, stats.d2h_transfers),
        ),
        (
            "modeled time".into(),
            format!("{:.1} us", stats.modeled_time_us()),
        ),
    ];
    for k in kernel_report(stats) {
        pairs.push((
            format!("kernel {}", k.name),
            format!(
                "{} launches, {:.1} us, {} mem txns",
                k.launches,
                k.modeled_ps as f64 / 1e6,
                k.mem_transactions
            ),
        ));
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gpu, GpuConfig, KernelTally};

    fn traced_gpu_with_work() -> Gpu {
        let gpu = Gpu::with_trace(GpuConfig::k40());
        gpu.charge_kernel(
            "alpha",
            1,
            KernelTally {
                warp_instructions: 100,
                mem_transactions: 1000,
                atomic_ops: 0,
            },
        );
        gpu.charge_kernel(
            "alpha",
            1,
            KernelTally {
                warp_instructions: 50,
                mem_transactions: 500,
                atomic_ops: 2,
            },
        );
        gpu.charge_kernel(
            "beta",
            4,
            KernelTally {
                warp_instructions: 10,
                mem_transactions: 1_000_000,
                atomic_ops: 0,
            },
        );
        gpu
    }

    #[test]
    fn report_aggregates_by_name() {
        let stats = traced_gpu_with_work().stats();
        let rows = kernel_report(&stats);
        assert_eq!(rows.len(), 2);
        // beta is slowest (1M transactions) -> first
        assert_eq!(rows[0].name, "beta");
        let alpha = rows.iter().find(|r| r.name == "alpha").unwrap();
        assert_eq!(alpha.launches, 2);
        assert_eq!(alpha.warp_instructions, 150);
        assert_eq!(alpha.mem_transactions, 1500);
        assert_eq!(alpha.atomic_ops, 2);
    }

    #[test]
    fn untraced_run_is_empty() {
        let gpu = Gpu::new(GpuConfig::k40());
        gpu.charge_kernel("x", 1, KernelTally::default());
        assert!(kernel_report(&gpu.stats()).is_empty());
    }

    #[test]
    fn stats_pairs_cover_counters_and_kernels() {
        let stats = traced_gpu_with_work().stats();
        let pairs = stats_pairs(&stats);
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"kernels launched"));
        assert!(keys.contains(&"modeled time"));
        assert!(keys.contains(&"kernel alpha"));
        assert!(keys.contains(&"kernel beta"));
        let alpha = pairs.iter().find(|(k, _)| k == "kernel alpha").unwrap();
        assert!(alpha.1.starts_with("2 launches"));
    }

    #[test]
    fn equal_times_are_ordered_by_name() {
        let tally = KernelTally {
            warp_instructions: 7,
            mem_transactions: 70,
            atomic_ops: 0,
        };
        let report = |names: [&'static str; 2]| {
            let gpu = Gpu::with_trace(GpuConfig::k40());
            for name in names {
                gpu.charge_kernel(name, 1, tally);
            }
            kernel_report(&gpu.stats())
        };
        let rows = report(["zeta", "eta"]);
        assert_eq!(rows, report(["eta", "zeta"]));
        let names: Vec<_> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["eta", "zeta"]);
    }
}
