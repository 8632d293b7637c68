//! Triangle counting and MIS charge a device their cheaper formulation
//! (docs/adr/0016), in the `tests/direction.rs` shape: the answer never
//! depends on the backend or on what is resident, and every priced product
//! is charged the cheaper of its two prices.
//!
//! `triangle_count`'s host computes `C<L> = L·L`; a device is charged the
//! cheaper of that product (a transpose of `L`, then the dot) and the dot
//! of `C'<L> = L·Lᵀ` over `L`'s own rows, whatever is resident. MIS's
//! knock-out is a push; with `Aᵀ` resident a device is charged the cheaper
//! of that push and one pull over `Aᵀ`, and without it the push, as
//! before pricing, bit for bit.
//!
//! The prices are read through a backend that wraps cuda-sim and keeps,
//! for every call of the [`Backend::level`] hook, the price it returned
//! and what the device clock moved.

use std::sync::Mutex;

use gbtl::algebra::{PlusPair, TriL};
use gbtl::algorithms::{adjacency, maximal_independent_set, triangle_count};
use gbtl::backend_cuda::charge;
use gbtl::core::{ChosenDir, Device, DevicePrice};
use gbtl::gpu_sim::Gpu;
use gbtl::graphgen::{erdos_renyi, symmetrize, torus_2d, Rmat};
use gbtl::prelude::*;

/// cuda-sim, recording each priced product: the price the device took and
/// the modeled nanoseconds its clock moved by.
#[derive(Default)]
struct Recorded {
    cuda: CudaBackend,
    priced: Mutex<Vec<(Option<DevicePrice>, f64)>>,
}

impl Backend for Recorded {
    fn name(&self) -> &'static str {
        self.cuda.name()
    }

    fn charge(&self, pipeline: impl FnOnce(&Device<'_>)) {
        self.cuda.charge(pipeline)
    }

    fn level<R>(
        &self,
        host: impl FnOnce() -> R,
        pull: impl FnOnce(&R, &Device<'_>) -> bool,
    ) -> (R, Option<DevicePrice>) {
        let before = self.cuda.stats().modeled_time_s;
        let (r, price) = self.cuda.level(host, pull);
        let moved_ns = (self.cuda.stats().modeled_time_s - before) * 1e9;
        self.priced.lock().unwrap().push((price, moved_ns));
        (r, price)
    }
}

impl Recorded {
    /// The records since the last call, and the modeled seconds the device
    /// clock moved over `solve`.
    fn solve<T>(&self, solve: impl FnOnce() -> T) -> (T, Vec<(Option<DevicePrice>, f64)>, f64) {
        self.priced.lock().unwrap().clear();
        let before = self.cuda.stats().modeled_time_s;
        let out = solve();
        let seconds = self.cuda.stats().modeled_time_s - before;
        (
            out,
            std::mem::take(&mut self.priced.lock().unwrap()),
            seconds,
        )
    }
}

/// A price the device took: the cheaper of the two, push on a tie, and
/// what the clock moved, to the nanosecond each price is rounded to.
fn assert_charged_the_cheaper(what: &str, price: &DevicePrice, moved_ns: f64) {
    let cheaper = price.push_ns.min(price.pull_ns);
    let dir = if price.pull_ns < price.push_ns {
        ChosenDir::Pull
    } else {
        ChosenDir::Push
    };
    assert_eq!(price.dir, dir, "{what}: {price:?}");
    assert!(
        (moved_ns - cheaper as f64).abs() <= 1.0,
        "{what}: {price:?}, the device clock moved {moved_ns} ns"
    );
}

/// The three graphs, symmetric with no self-loops: rmat12 ef 8 seed 1,
/// er11 (ef 8, seed 2, `lib-algebra`'s) and torus48.
fn graphs() -> Vec<(&'static str, Matrix<bool>)> {
    vec![
        (
            "rmat12",
            adjacency(symmetrize(&Rmat::new(12, 8).seed(1).generate())),
        ),
        (
            "er11",
            adjacency(symmetrize(&erdos_renyi(2048, 2048 * 8, 2))),
        ),
        ("torus48", adjacency(torus_2d(48, 48))),
    ]
}

const MIS_SEED: u64 = 7;

/// What MIS charged a fresh cuda-sim device on each graph before its
/// knock-out was priced (modeled seconds as `f64` bits: 297.532, 284.704
/// and 261.884 µs): without `Aᵀ` resident it is charged that still.
const MIS_PUSHED: [(&str, u64); 3] = [
    ("rmat12", 0x3f33_7fc4_1e4e_aa21),
    ("er11", 0x3f32_a88a_5e79_6e3c),
    ("torus48", 0x3f31_29b1_1fcc_e212),
];

/// The triangle count and the MIS `ctx` computes on `a`.
fn tc_and_mis<B: Backend>(ctx: &Context<B>, a: &Matrix<bool>) -> (u64, Vector<bool>) {
    let tc = triangle_count(ctx, a).unwrap();
    (tc, maximal_independent_set(ctx, a, MIS_SEED).unwrap())
}

#[test]
fn triangle_count_and_mis_are_backend_and_residency_blind() {
    for (name, a) in graphs() {
        let (seq, par) = (Context::sequential(), Context::parallel_with_threads(2));
        let want = tc_and_mis(&seq, &a);
        assert!(gbtl::algorithms::mis::verify_mis(&a, &want.1), "{name}");
        for resident in [false, true] {
            let cuda = Context::cuda_default();
            if resident {
                seq.prewarm_transpose(&a);
                par.prewarm_transpose(&a);
                cuda.prewarm_transpose(&a);
            }
            let what = |backend| format!("{name} on {backend}, Aᵀ resident: {resident}");
            assert_eq!(tc_and_mis(&seq, &a), want, "{}", what("seq"));
            assert_eq!(tc_and_mis(&par, &a), want, "{}", what("par"));
            assert_eq!(tc_and_mis(&cuda, &a), want, "{}", what("cuda"));
        }
    }
}

#[test]
fn triangle_count_is_charged_the_cheaper_of_l_l_and_l_lt() {
    let mut pulled = 0;
    for (name, a) in graphs() {
        let ctx = Context::with_backend(Recorded::default());
        let (count, records, _) = ctx.backend().solve(|| triangle_count(&ctx, &a).unwrap());
        assert_eq!(count, triangle_count(&Context::sequential(), &a).unwrap());
        let [(Some(price), moved_ns)] = records[..] else {
            panic!("{name}: one priced product expected, got {records:?}");
        };
        assert_charged_the_cheaper(name, &price, moved_ns);
        pulled += (price.dir == ChosenDir::Pull) as usize;

        // push is the host's `C<L> = L·L` as cuda-sim charges it unpriced;
        // pull is the dot of `C'<L> = L·Lᵀ` over `L`'s rows, no transpose
        let l = Context::sequential().select_mat_new(TriL, &a);
        let host = Context::cuda_default();
        let mut c: Matrix<u64> = Matrix::new(a.nrows(), a.ncols());
        let desc = Descriptor::new();
        host.mxm(&mut c, Some(&l), no_accum(), PlusPair::new(), &l, &l, &desc)
            .unwrap();
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(price.push_ns, ns(host.gpu_stats().modeled_time_s), "{name}");
        let dot = Gpu::default();
        let rows = l.csr();
        charge::mxm_dot::<u64, bool, bool>(&dot, rows, rows, |j| rows.row_nnz(j));
        assert_eq!(price.pull_ns, ns(dot.stats().modeled_time_s), "{name}");
    }
    assert!(pulled > 0, "no graph charged L·Lᵀ");
}

#[test]
fn mis_knock_out_is_charged_the_cheaper_direction_with_at_resident() {
    for (name, a) in graphs() {
        let want = maximal_independent_set(&Context::sequential(), &a, MIS_SEED).unwrap();
        let pinned = MIS_PUSHED.iter().find(|(g, _)| *g == name).unwrap().1;

        // without Aᵀ nothing is priced: the push is charged, as before
        let cold = Context::with_backend(Recorded::default());
        let (set, records, pushed) = cold
            .backend()
            .solve(|| maximal_independent_set(&cold, &a, MIS_SEED).unwrap());
        assert_eq!(set, want, "{name}");
        assert!(
            !records.is_empty(),
            "{name}: no knock-out went through the hook"
        );
        assert!(
            records.iter().all(|(p, _)| p.is_none()),
            "{name}: {records:?}"
        );
        assert_eq!(
            pushed.to_bits(),
            pinned,
            "{name}: MIS without Aᵀ charged {pushed} s ({:#x})",
            pushed.to_bits()
        );

        // with it every round's knock-out is priced both ways
        let warm = Context::with_backend(Recorded::default());
        warm.prewarm_transpose(&a);
        let (set, records, priced) = warm
            .backend()
            .solve(|| maximal_independent_set(&warm, &a, MIS_SEED).unwrap());
        assert_eq!(set, want, "{name}");
        let mut saved = 0.0;
        for (round, (price, moved_ns)) in records.iter().enumerate() {
            let price = price.unwrap_or_else(|| panic!("{name}: round {round} unpriced"));
            assert_charged_the_cheaper(&format!("{name} round {round}"), &price, *moved_ns);
            saved += price.push_ns as f64 - moved_ns;
        }
        assert!(saved > 0.0, "{name}: no round pulled");
        assert!(
            ((pushed - priced) * 1e9 - saved).abs() <= records.len() as f64,
            "{name}: pushed {pushed} s, priced {priced} s, the rounds saved {saved} ns"
        );
    }
}
