//! Property tests: the modeled clock is an integer count of picoseconds.
//! Each launch and each transfer is rounded once, when it is charged, so a
//! total is an exact sum — the same in any order, equal to its parts, and
//! moved by a replay by exactly what the replayed pipeline was charged.

use gbtl_gpu_sim::{Gpu, GpuConfig, KernelTally};
use proptest::prelude::*;

/// One charge a device takes: a kernel launch, or a PCIe transfer of
/// `bytes` (`h2d` for host to device).
#[derive(Clone, Copy, Debug)]
enum Charge {
    Kernel(KernelTally),
    Transfer { bytes: u64, h2d: bool },
}

fn arb_tally() -> impl Strategy<Value = KernelTally> {
    (0u64..1 << 24, 0u64..1 << 24, 0u64..1 << 16).prop_map(|(warp, txn, atomics)| KernelTally {
        warp_instructions: warp,
        mem_transactions: txn,
        atomic_ops: atomics,
    })
}

fn arb_charges() -> impl Strategy<Value = Vec<Charge>> {
    let charge = (any::<bool>(), arb_tally(), 0u64..1 << 28, any::<bool>());
    proptest::collection::vec(charge, 0..64).prop_map(|v| {
        v.into_iter()
            .map(|(kernel, tally, bytes, h2d)| {
                if kernel {
                    Charge::Kernel(tally)
                } else {
                    Charge::Transfer { bytes, h2d }
                }
            })
            .collect()
    })
}

fn charge<'a>(gpu: &Gpu, charges: impl IntoIterator<Item = &'a Charge>) {
    for c in charges {
        match *c {
            Charge::Kernel(tally) => gpu.charge_kernel("k", 1, tally),
            Charge::Transfer { bytes, h2d } => gpu.charge_transfer_bytes(bytes, h2d),
        }
    }
}

/// The roofline of one launch in seconds, as an `f64` sum of terms —
/// the formula [`Gpu::kernel_ps`] rounds.
fn kernel_seconds(c: &GpuConfig, t: &KernelTally) -> f64 {
    let compute = t.warp_instructions as f64 / c.issue_rate();
    let txns = t.mem_transactions as f64 + t.atomic_ops as f64 * c.atomic_penalty;
    let mem = txns * c.mem_transaction_bytes as f64 / (c.mem_bandwidth_gbps * 1e9);
    c.kernel_launch_us * 1e-6 + compute.max(mem)
}

proptest! {
    #[test]
    fn charge_order_does_not_move_the_clock(charges in arb_charges(), rotate in 0usize..64) {
        let (a, b) = (Gpu::new(GpuConfig::k40()), Gpu::new(GpuConfig::k40()));
        charge(&a, &charges);
        let mut permuted = charges.clone();
        permuted.reverse();
        let mid = rotate.min(permuted.len());
        permuted.rotate_left(mid);
        charge(&b, &permuted);
        prop_assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn the_total_is_its_launches_and_transfers(charges in arb_charges()) {
        let gpu = Gpu::with_trace(GpuConfig::k40());
        charge(&gpu, &charges);
        let launches: u64 = gpu.stats().kernel_log.iter().map(|k| k.modeled_ps).sum();
        let transfers: u64 = charges
            .iter()
            .filter(|c| matches!(c, Charge::Transfer { .. }))
            .map(|c| {
                let alone = Gpu::new(GpuConfig::k40());
                charge(&alone, [c]);
                alone.stats().modeled_ps
            })
            .sum();
        prop_assert_eq!(gpu.stats().modeled_ps, launches + transfers);
    }

    #[test]
    fn a_replay_moves_the_clock_by_the_scratch_total(
        before in arb_charges(),
        tallies in proptest::collection::vec(arb_tally(), 0..32),
    ) {
        let gpu = Gpu::new(GpuConfig::k40());
        charge(&gpu, &before);
        let scratch = gpu.scratch();
        for t in tallies {
            scratch.charge_kernel("k", 1, t);
        }
        let (from, priced) = (gpu.stats().modeled_ps, scratch.stats());
        gpu.replay(&priced);
        prop_assert_eq!(gpu.stats().modeled_ps - from, priced.modeled_ps);
    }

    #[test]
    fn a_launch_is_its_roofline_rounded_to_the_picosecond(tally in arb_tally()) {
        for config in [GpuConfig::k40(), GpuConfig::small()] {
            let exact = kernel_seconds(&config, &tally) * 1e12;
            let ps = Gpu::new(config).kernel_ps(&tally) as f64;
            prop_assert!((exact - 0.5..=exact + 0.5).contains(&ps), "{ps} ps vs {exact}");
        }
    }
}
