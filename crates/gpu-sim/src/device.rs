//! The simulated device: transfer accounting and the kernel cost model.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::{GpuConfig, GpuStats, KernelRecord, KernelTally};

/// A simulated CUDA-like device.
///
/// All state updates go through an internal lock, so a `&Gpu` can be shared
/// freely across threads (the serving pool's workers share one); a launch
/// accumulates its tally locally and charges once, so the lock is not
/// contended on hot paths.
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    stats: Mutex<GpuStats>,
    trace: bool,
}

impl Gpu {
    /// Create a device with the given configuration.
    pub fn new(config: GpuConfig) -> Self {
        Self {
            config,
            stats: Mutex::new(GpuStats::default()),
            trace: false,
        }
    }

    /// Create a device that additionally keeps a per-kernel log
    /// (`stats().kernel_log`).
    pub fn with_trace(config: GpuConfig) -> Self {
        Self {
            config,
            stats: Mutex::new(GpuStats::default()),
            trace: true,
        }
    }

    /// The device configuration.
    #[inline]
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The counters, locked poison-tolerantly: they are plain numbers, so a
    /// panic on another thread cannot leave them half-written.
    fn counters(&self) -> MutexGuard<'_, GpuStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the cumulative statistics.
    pub fn stats(&self) -> GpuStats {
        let mut s = self.counters().clone();
        s.modeled_time_s = s.modeled_ps as f64 / 1e12;
        s
    }

    /// Reset all counters (keeps configuration).
    pub fn reset_stats(&self) {
        *self.counters() = GpuStats::default();
    }

    /// Charge a host↔device transfer of `bytes` (`h2d` for host to
    /// device): PCIe latency plus bandwidth. No data moves — device data
    /// lives in host memory, and what the model counts is the crossing.
    pub fn charge_transfer_bytes(&self, bytes: u64, h2d: bool) {
        let ps = picoseconds(
            self.config.pcie_latency_us * 1e-6
                + bytes as f64 / (self.config.pcie_bandwidth_gbps * 1e9),
        );
        let mut s = self.counters();
        if h2d {
            s.h2d_transfers += 1;
            s.bytes_h2d += bytes;
        } else {
            s.d2h_transfers += 1;
            s.bytes_d2h += bytes;
        }
        s.modeled_ps += ps;
    }

    /// Modeled execution time of a kernel with the given tally, in
    /// picoseconds: launch overhead plus the roofline maximum of compute
    /// time and memory time.
    pub fn kernel_ps(&self, tally: &KernelTally) -> u64 {
        let compute = tally.warp_instructions as f64 / self.config.issue_rate();
        let mem_txn =
            tally.mem_transactions as f64 + tally.atomic_ops as f64 * self.config.atomic_penalty;
        let mem = mem_txn * self.config.mem_transaction_bytes as f64
            / (self.config.mem_bandwidth_gbps * 1e9);
        picoseconds(self.config.kernel_launch_us * 1e-6 + compute.max(mem))
    }

    /// A zeroed device of this one's configuration that logs its launches:
    /// where a pipeline is priced before it is charged ([`Gpu::replay`]).
    pub fn scratch(&self) -> Gpu {
        Gpu::with_trace(self.config.clone())
    }

    /// Charge every launch a [`Gpu::scratch`] logged, in order and at the
    /// price it was logged at: what running its pipeline here would have
    /// charged. A priced pipeline launches kernels only; it moves nothing
    /// over PCIe.
    pub fn replay(&self, scratch: &GpuStats) {
        assert_eq!(
            scratch.h2d_transfers + scratch.d2h_transfers,
            0,
            "a replayed pipeline moved data over PCIe"
        );
        for k in &scratch.kernel_log {
            self.record(*k);
        }
    }

    /// Record a completed kernel launch.
    pub fn charge_kernel(&self, name: &'static str, blocks: usize, tally: KernelTally) {
        self.record(KernelRecord {
            name,
            blocks,
            tally,
            modeled_ps: self.kernel_ps(&tally),
        });
    }

    fn record(&self, launch: KernelRecord) {
        let mut s = self.counters();
        s.kernels_launched += 1;
        s.warp_instructions += launch.tally.warp_instructions;
        s.mem_transactions += launch.tally.mem_transactions;
        s.atomic_ops += launch.tally.atomic_ops;
        s.modeled_ps += launch.modeled_ps;
        if self.trace {
            s.kernel_log.push(launch);
        }
    }
}

/// A modeled duration in whole picoseconds: every charge is rounded once,
/// here, so every total is an exact integer sum (docs/adr/0019).
fn picoseconds(seconds: f64) -> u64 {
    (seconds * 1e12).round() as u64
}

impl Default for Gpu {
    fn default() -> Self {
        Self::new(GpuConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_are_charged() {
        let gpu = Gpu::new(GpuConfig::k40());
        gpu.charge_transfer_bytes(8000, true);
        gpu.charge_transfer_bytes(8000, false);
        let s = gpu.stats();
        assert_eq!(s.h2d_transfers, 1);
        assert_eq!(s.d2h_transfers, 1);
        assert_eq!(s.bytes_h2d, 8000);
        assert_eq!(s.bytes_d2h, 8000);
        // 2 transfers x (10us latency + 8000B / 12 GB/s = 666.667 ns)
        assert_eq!(s.modeled_ps, 2 * (10_000_000 + 666_667));
    }

    #[test]
    fn kernel_time_is_roofline() {
        let gpu = Gpu::new(GpuConfig::k40());
        // Memory-bound tally: 1000 transactions x 128 B / 288 GB/s =
        // 444.444 ns, negligible compute.
        let t_mem = gpu.kernel_ps(&KernelTally {
            warp_instructions: 1,
            mem_transactions: 1000,
            atomic_ops: 0,
        });
        assert_eq!(t_mem, 5_000_000 + 444_444);

        // Compute-bound tally: 10^7 instructions / (15 SMs x 0.745 GHz) =
        // 894.854 us.
        let t_cmp = gpu.kernel_ps(&KernelTally {
            warp_instructions: 10_000_000,
            mem_transactions: 1,
            atomic_ops: 0,
        });
        assert_eq!(t_cmp, 5_000_000 + 894_854_586);
    }

    #[test]
    fn atomics_cost_more_than_plain_transactions() {
        let gpu = Gpu::new(GpuConfig::k40());
        let plain = gpu.kernel_ps(&KernelTally {
            warp_instructions: 0,
            mem_transactions: 1000,
            atomic_ops: 0,
        });
        let atomics = gpu.kernel_ps(&KernelTally {
            warp_instructions: 0,
            mem_transactions: 0,
            atomic_ops: 1000,
        });
        assert!(atomics > plain);
    }

    #[test]
    fn trace_keeps_kernel_log() {
        let gpu = Gpu::with_trace(GpuConfig::k40());
        gpu.charge_kernel("test_kernel", 4, KernelTally::default());
        let s = gpu.stats();
        assert_eq!(s.kernel_log.len(), 1);
        assert_eq!(s.kernel_log[0].name, "test_kernel");
        assert_eq!(s.kernels_launched, 1);
    }

    #[test]
    fn a_replayed_scratch_charges_what_the_pipeline_does() {
        let pipeline = |gpu: &Gpu| {
            for (name, n) in [("a", 3), ("b", 70_000), ("c", 11)] {
                let tally = KernelTally {
                    warp_instructions: n,
                    mem_transactions: 2 * n,
                    atomic_ops: n / 3,
                };
                gpu.charge_kernel(name, 2, tally);
            }
        };
        let (direct, replayed) = (
            Gpu::with_trace(GpuConfig::k40()),
            Gpu::new(GpuConfig::k40()),
        );
        let scratch = replayed.scratch();
        pipeline(&direct);
        pipeline(&scratch);
        replayed.replay(&scratch.stats());
        let (want, got) = (direct.stats(), replayed.stats());
        assert_eq!(got.modeled_ps, want.modeled_ps);
        assert_eq!(
            got.kernel_log.len(),
            0,
            "a replay keeps its target's trace mode"
        );
        assert_eq!(
            GpuStats {
                kernel_log: vec![],
                ..want
            },
            got
        );
    }

    #[test]
    fn reset_clears_counters() {
        let gpu = Gpu::default();
        gpu.charge_transfer_bytes(64, true);
        gpu.reset_stats();
        assert_eq!(gpu.stats(), GpuStats::default());
    }
}
