//! Property tests: the three host-pass primitives agree with a trivial host
//! reference, the accounting fast paths agree with the naive count they
//! replace, and the cost accounting stays sane (non-zero for non-empty
//! inputs, monotone in obvious ways).

use std::collections::BTreeSet;

use gbtl_gpu_sim::{primitives as prim, Gpu, GpuConfig, KernelTally};
use proptest::prelude::*;

fn gpu() -> Gpu {
    Gpu::new(GpuConfig::k40())
}

/// Element sizes the kernels read (`0` and a non-power-of-two included) and
/// the transaction sizes to coalesce them into (128, and 96 for the
/// division path).
const ELEM_BYTES: [usize; 6] = [0, 1, 8, 16, 24, 256];
const TXN_BYTES: [usize; 2] = [128, 96];

fn gpu_with_txn(txn_bytes: usize) -> Gpu {
    Gpu::new(GpuConfig {
        mem_transaction_bytes: txn_bytes,
        ..GpuConfig::k40()
    })
}

/// The tally of a one-block kernel that does nothing but `narrate`.
fn tally_of(gpu: &Gpu, narrate: impl Fn(&mut gbtl_gpu_sim::BlockCtx)) -> KernelTally {
    gpu.reset_stats();
    gpu.launch("probe", 1, |_, ctx| narrate(ctx));
    let s = gpu.stats();
    KernelTally {
        warp_instructions: s.warp_instructions,
        mem_transactions: s.mem_transactions,
        atomic_ops: s.atomic_ops,
    }
}

/// What one warp-step is charged, by definition: one instruction, and one
/// transaction per distinct segment among the lanes' byte addresses.
fn naive_warp_step(lanes: &[usize], elem_bytes: usize, txn_bytes: usize) -> KernelTally {
    let segments: BTreeSet<usize> = lanes.iter().map(|&i| i * elem_bytes / txn_bytes).collect();
    KernelTally {
        warp_instructions: 1,
        mem_transactions: segments.len() as u64,
        atomic_ops: 0,
    }
}

/// Lane vectors of every shape a kernel produces: arbitrary (duplicates,
/// any order), and sorted (a CSR row's columns), up to a full warp.
fn arb_lanes() -> impl Strategy<Value = Vec<usize>> {
    (
        proptest::collection::vec(0usize..5000, 0..=32),
        any::<bool>(),
    )
        .prop_map(|(mut v, sort)| {
            if sort {
                v.sort_unstable();
            }
            v
        })
}

proptest! {
    #[test]
    fn exclusive_scan_matches_prefix_sums(v in proptest::collection::vec(0usize..100, 0..5000)) {
        let g = gpu();
        let ex = prim::exclusive_scan(&g, &v, 0, |a, b| a + b);
        prop_assert_eq!(ex.len(), v.len());
        let mut acc = 0usize;
        for i in 0..v.len() {
            prop_assert_eq!(ex[i], acc);
            acc += v[i];
        }
        // upsweep + downsweep
        prop_assert_eq!(g.stats().kernels_launched, 2);
    }

    #[test]
    fn warp_read_counts_distinct_segments(lanes in arb_lanes()) {
        for txn in TXN_BYTES {
            let g = gpu_with_txn(txn);
            for elem in ELEM_BYTES {
                let expect = naive_warp_step(&lanes, elem, txn);
                prop_assert_eq!(tally_of(&g, |ctx| ctx.warp_read(elem, &lanes)), expect);
                prop_assert_eq!(tally_of(&g, |ctx| ctx.warp_write(elem, &lanes)), expect);
            }
        }
    }

    #[test]
    fn warp_read_run_equals_warp_read_of_the_range(lo in 0usize..5000, len in 0usize..=32) {
        let lanes: Vec<usize> = (lo..lo + len).collect();
        for txn in TXN_BYTES {
            let g = gpu_with_txn(txn);
            for elem in ELEM_BYTES {
                prop_assert_eq!(
                    tally_of(&g, |ctx| ctx.warp_read_run(elem, lo, lo + len)),
                    tally_of(&g, |ctx| ctx.warp_read(elem, &lanes))
                );
            }
        }
    }

    #[test]
    fn gather_cost_is_the_sum_over_warp_sized_runs(
        idx in proptest::collection::vec(0usize..5000, 0..200)
    ) {
        for txn in TXN_BYTES {
            let g = gpu_with_txn(txn);
            for elem in ELEM_BYTES {
                let expect: u64 = idx
                    .chunks(32)
                    .map(|lanes| naive_warp_step(lanes, elem, txn).mem_transactions)
                    .sum();
                prop_assert_eq!(prim::gather_cost(&g, &idx, elem), expect);
                // an index stream computed on the fly costs what the slice costs
                prop_assert_eq!(prim::gather_cost(&g, idx.iter().map(|&i| i + 1 - 1), elem), expect);
            }
        }
    }

    #[test]
    fn sort_pairs_is_std_stable_sort_by_key(
        pairs in proptest::collection::vec((0u64..600, -100i64..100), 0..2000),
        wide in proptest::collection::vec(0u64..=(1 << 63), 0..300),
        halves in (
            proptest::collection::vec(0u64..5000, 0..500),
            proptest::collection::vec(0u64..5000, 0..500),
        ),
    ) {
        fn check<K: prim::sort::RadixKey + std::fmt::Debug>(keys: &[K]) {
            // values are positions, so the order among equal keys is visible
            let order: Vec<usize> = (0..keys.len()).collect();
            let g = gpu();
            let (sk, sv) = prim::sort_pairs(&g, keys, &order);
            let mut expect: Vec<(K, usize)> = keys.iter().copied().zip(order).collect();
            expect.sort_by_key(|&(k, _)| k);
            assert_eq!(sk.into_iter().zip(sv).collect::<Vec<_>>(), expect);
            assert_eq!(g.stats().kernels_launched, 4);
        }
        // many short runs over two digits, with ties: the radix passes
        let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        check(&keys);
        // keys up to 2^63: every digit in play; `usize` keys take the same path
        check(&wide);
        check(&wide.iter().map(|&k| k as usize).collect::<Vec<_>>());
        // two sorted operands back to back, as an elementwise merge hands
        // them over: the few-runs merge
        let (mut a, mut b) = halves;
        a.sort_unstable();
        b.sort_unstable();
        check(&[a, b].concat());

        // and the values really are carried along
        let vals: Vec<i64> = pairs.iter().map(|&(_, v)| v).collect();
        let (sk, sv) = prim::sort_pairs(&gpu(), &keys, &vals);
        let mut expect = pairs.clone();
        expect.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(sk.into_iter().zip(sv).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn reduce_by_key_matches_btreemap(
        pairs in proptest::collection::vec((0u64..30, -100i64..100), 0..2000)
    ) {
        let g = gpu();
        let keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        let vals: Vec<i64> = pairs.iter().map(|&(_, v)| v).collect();
        let (sk, sv) = prim::sort_pairs(&g, &keys, &vals);
        let (uk, uv) = prim::reduce_by_key(&g, &sk, &sv, |a, b| a + b);
        let mut reference = std::collections::BTreeMap::new();
        for (k, v) in pairs {
            *reference.entry(k).or_insert(0i64) += v;
        }
        prop_assert_eq!(uk.len(), reference.len());
        for (k, v) in uk.into_iter().zip(uv) {
            prop_assert_eq!(reference.get(&k), Some(&v));
        }
        // four radix passes + one reduce_by_key
        prop_assert_eq!(g.stats().kernels_launched, 5);
    }

    #[test]
    fn reduce_by_key_folds_each_run_in_order(
        lens in proptest::collection::vec(1usize..6, 0..200)
    ) {
        // run r holds key r; the values are their positions, folded by an
        // op that is neither commutative nor associative
        let keys: Vec<u64> = lens
            .iter()
            .enumerate()
            .flat_map(|(r, &len)| std::iter::repeat_n(r as u64, len))
            .collect();
        let vals: Vec<u64> = (0..keys.len() as u64).collect();
        let op = |a: u64, b: u64| a.wrapping_mul(31).wrapping_add(b);
        let g = gpu();
        let (uk, uv) = prim::reduce_by_key(&g, &keys, &vals, op);
        prop_assert_eq!(uk, (0..lens.len() as u64).collect::<Vec<_>>());
        let mut at = 0;
        for (r, &len) in lens.iter().enumerate() {
            let naive = vals[at + 1..at + len].iter().fold(vals[at], |a, &b| op(a, b));
            prop_assert_eq!(uv[r], naive);
            at += len;
        }
        prop_assert_eq!(g.stats().kernels_launched, 1);
    }

    #[test]
    fn costs_are_positive_and_monotone(n in 1usize..4000) {
        // more elements -> at least as many transactions
        let g1 = gpu();
        prim::reduce::charge_reduce::<f64>(&g1, n);
        let t1 = g1.stats().mem_transactions;
        prop_assert!(t1 > 0);

        let g2 = gpu();
        prim::reduce::charge_reduce::<f64>(&g2, 2 * n);
        prop_assert!(g2.stats().mem_transactions >= t1);
    }
}
