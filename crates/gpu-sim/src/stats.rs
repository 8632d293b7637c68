//! Execution statistics: what the cost model observed.

/// Tally of one kernel's simulated activity. Also used as the per-block
/// accumulator during a launch; block tallies sum into the kernel record.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct KernelTally {
    /// Warp instructions issued (one per lockstep step of a warp).
    pub warp_instructions: u64,
    /// Global-memory transactions (128-byte segments moved).
    pub mem_transactions: u64,
    /// Atomic read-modify-write operations.
    pub atomic_ops: u64,
}

impl KernelTally {
    /// Accumulate another tally into this one.
    #[inline]
    pub fn merge(&mut self, other: &KernelTally) {
        self.warp_instructions += other.warp_instructions;
        self.mem_transactions += other.mem_transactions;
        self.atomic_ops += other.atomic_ops;
    }
}

/// One completed kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRecord {
    /// Kernel name (for reports).
    pub name: &'static str,
    /// Number of thread blocks launched.
    pub blocks: usize,
    /// Activity tally.
    pub tally: KernelTally,
    /// Modeled execution time in picoseconds (including launch overhead).
    pub modeled_ps: u64,
}

/// Cumulative device statistics.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct GpuStats {
    /// Kernels launched (including primitive calls).
    pub kernels_launched: u64,
    /// Host-to-device transfers performed.
    pub h2d_transfers: u64,
    /// Device-to-host transfers performed.
    pub d2h_transfers: u64,
    /// Bytes moved host-to-device.
    pub bytes_h2d: u64,
    /// Bytes moved device-to-host.
    pub bytes_d2h: u64,
    /// Total warp instructions across all kernels.
    pub warp_instructions: u64,
    /// Total global-memory transactions across all kernels.
    pub mem_transactions: u64,
    /// Total atomic operations across all kernels.
    pub atomic_ops: u64,
    /// Total modeled time in picoseconds (kernels + transfers): each
    /// charge rounded once, so the total is exact whatever the order.
    pub modeled_ps: u64,
    /// [`GpuStats::modeled_ps`] in seconds, a read-only mirror set by
    /// [`Gpu::stats`](crate::Gpu::stats) and never summed. It stays only
    /// until the benchmark reads `modeled_ps`, then it is deleted.
    pub modeled_time_s: f64,
    /// Per-kernel log (kept only when tracing is enabled).
    pub kernel_log: Vec<KernelRecord>,
}

impl GpuStats {
    /// Modeled time in microseconds (convenience for reports).
    #[inline]
    pub fn modeled_time_us(&self) -> f64 {
        self.modeled_ps as f64 / 1e6
    }

    /// Total bytes moved over PCIe in both directions.
    #[inline]
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_h2d + self.bytes_d2h
    }
}

impl std::fmt::Display for GpuStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "kernels={} warp_instr={} mem_txn={} atomics={}",
            self.kernels_launched, self.warp_instructions, self.mem_transactions, self.atomic_ops
        )?;
        writeln!(
            f,
            "h2d={}B ({} xfers)  d2h={}B ({} xfers)",
            self.bytes_h2d, self.h2d_transfers, self.bytes_d2h, self.d2h_transfers
        )?;
        write!(f, "modeled time = {:.3} us", self.modeled_time_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_merge_sums_fields() {
        let mut a = KernelTally {
            warp_instructions: 10,
            mem_transactions: 5,
            atomic_ops: 1,
        };
        let b = KernelTally {
            warp_instructions: 3,
            mem_transactions: 2,
            atomic_ops: 4,
        };
        a.merge(&b);
        assert_eq!(a.warp_instructions, 13);
        assert_eq!(a.mem_transactions, 7);
        assert_eq!(a.atomic_ops, 5);
    }

    #[test]
    fn display_is_reasonable() {
        let s = GpuStats::default();
        let text = format!("{s}");
        assert!(text.contains("kernels=0"));
        assert!(text.contains("modeled time"));
    }
}
