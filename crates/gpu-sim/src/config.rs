//! Device configuration: the knobs of the SIMT cost model.

/// Parameters of the simulated device.
///
/// The defaults model a Tesla-K40-class card — the hardware generation the
/// GBTL-CUDA paper targeted (GABB'16). Only *ratios* matter for the
/// reproduced shapes: compute throughput vs memory bandwidth (roofline
/// balance point), device bandwidth vs PCIe bandwidth (transfer crossover),
/// and launch overhead vs kernel duration (small-graph crossover).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Threads per warp (lanes executing in lockstep). At most 64: a
    /// thread-per-row pull profile holds a warp's lanes in one `u64` mask.
    pub warp_size: usize,
    /// Core clock in GHz. One warp instruction issues per SM per cycle.
    pub clock_ghz: f64,
    /// Device (global) memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Host-device (PCIe) bandwidth in GB/s.
    pub pcie_bandwidth_gbps: f64,
    /// Fixed latency per host-device transfer, in microseconds.
    pub pcie_latency_us: f64,
    /// Fixed overhead per kernel launch, in microseconds.
    pub kernel_launch_us: f64,
    /// Size of one global-memory transaction, in bytes.
    pub mem_transaction_bytes: usize,
    /// Throughput penalty multiplier for atomic operations (an atomic costs
    /// this many ordinary transactions).
    pub atomic_penalty: f64,
}

impl GpuConfig {
    /// A Tesla K40-class configuration (15 SMs, 745 MHz, 288 GB/s GDDR5,
    /// PCIe 3.0 x16).
    pub fn k40() -> Self {
        Self {
            sm_count: 15,
            warp_size: 32,
            clock_ghz: 0.745,
            mem_bandwidth_gbps: 288.0,
            pcie_bandwidth_gbps: 12.0,
            pcie_latency_us: 10.0,
            kernel_launch_us: 5.0,
            mem_transaction_bytes: 128,
            atomic_penalty: 4.0,
        }
    }

    /// A small embedded-class device, useful in tests to magnify overheads.
    pub fn small() -> Self {
        Self {
            sm_count: 2,
            warp_size: 32,
            clock_ghz: 0.5,
            mem_bandwidth_gbps: 25.0,
            pcie_bandwidth_gbps: 4.0,
            pcie_latency_us: 10.0,
            kernel_launch_us: 5.0,
            mem_transaction_bytes: 128,
            atomic_penalty: 4.0,
        }
    }

    /// Peak warp-instruction issue rate, instructions per second.
    #[inline]
    pub fn issue_rate(&self) -> f64 {
        self.sm_count as f64 * self.clock_ghz * 1e9
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::k40()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_k40() {
        let c = GpuConfig::default();
        assert_eq!(c.sm_count, 15);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.mem_transaction_bytes, 128);
    }

    #[test]
    fn issue_rate_scales_with_sms_and_clock() {
        let c = GpuConfig::k40();
        let expected = 15.0 * 0.745e9;
        assert!((c.issue_rate() - expected).abs() < 1.0);
    }
}
