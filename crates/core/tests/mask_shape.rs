//! The mask rule — a mask has the output's shape — holds for every masked
//! operation: a mask smaller or larger than the output is a
//! `DimensionMismatch` carrying the operation's error name, raised before
//! the backend runs, with the output left as it was. Never a panic, never a
//! silent `Ok`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gbtl_algebra::{Identity, Plus, PlusMonoid, PlusTimes, Second, Times, ValueGt};
use gbtl_core::{no_accum, Backend, Context, Descriptor, GblasError, Matrix, Result, Vector};

const N: usize = 4;

/// One masked call's outcome: the operation, the name its errors carry,
/// whether it left its output untouched, and what it returned (`None`: it
/// panicked).
type Row = (&'static str, &'static str, bool, Option<Result<()>>);

/// A masked operation, by the kind of output it writes.
enum Call<'a> {
    Mat(&'a dyn Fn(&mut Matrix<i64>) -> Result<()>),
    Vec(&'a dyn Fn(&mut Vector<i64>) -> Result<()>),
}
use Call::{Mat, Vec as V};

/// Every masked operation once, each on a fresh copy of a non-empty `N`-sized
/// output, under `mm` (matrix outputs) or `mv` (vector outputs).
fn masked_ops<B: Backend>(
    ctx: &Context<B>,
    mm: &Matrix<bool>,
    mv: &Vector<bool>,
    desc: &Descriptor,
) -> Vec<Row> {
    let a = Matrix::build(
        N,
        N,
        [(0usize, 1usize, 2i64), (1, 2, 3), (2, 0, 5), (3, 3, 7)],
        Second::new(),
    )
    .unwrap();
    let half = Matrix::build(2, 2, [(0usize, 0usize, 1i64), (1, 1, 1)], Second::new()).unwrap();
    let u = Vector::build(N, [(0usize, 1i64), (2, 4)], Second::new()).unwrap();
    let c_old = Matrix::build(N, N, [(0usize, 0usize, 9i64), (3, 1, 8)], Second::new()).unwrap();
    let w_old = Vector::build(N, [(1usize, 9i64), (3, 8)], Second::new()).unwrap();
    let (mm, mv) = (Some(mm), Some(mv));
    let acc = no_accum::<i64>;
    let (sr, plus, times) = (PlusTimes::new(), Plus::new(), Times::new());
    let (id, gt, sum) = (Identity::new(), ValueGt(0i64), PlusMonoid::new());

    #[rustfmt::skip] // one operation a line
    let table: [(&str, &str, Call); 14] = [
        ("mxm", "mxm", Mat(&|c| ctx.mxm(c, mm, acc(), sr, &a, &a, desc))),
        ("mxv", "mxv", V(&|w| ctx.mxv(w, mv, acc(), sr, &a, &u, desc))),
        ("vxm", "vxm", V(&|w| ctx.vxm(w, mv, acc(), sr, &u, &a, desc))),
        ("ewise_add_mat", "ewise", Mat(&|c| ctx.ewise_add_mat(c, mm, acc(), plus, &a, &a, desc))),
        ("ewise_mult_mat", "ewise", Mat(&|c| ctx.ewise_mult_mat(c, mm, acc(), times, &a, &a, desc))),
        ("ewise_add_vec", "ewise", V(&|w| ctx.ewise_add_vec(w, mv, acc(), plus, &u, &u, desc))),
        ("ewise_mult_vec", "ewise", V(&|w| ctx.ewise_mult_vec(w, mv, acc(), times, &u, &u, desc))),
        ("apply_mat", "apply", Mat(&|c| ctx.apply_mat(c, mm, acc(), id, &a, desc))),
        ("apply_vec", "apply", V(&|w| ctx.apply_vec(w, mv, acc(), id, &u, desc))),
        ("reduce_rows", "reduce_rows", V(&|w| ctx.reduce_rows(w, mv, acc(), sum, &a, desc))),
        ("select_mat", "select", Mat(&|c| ctx.select_mat(c, mm, acc(), gt, &a, desc))),
        ("select_vec", "select", V(&|w| ctx.select_vec(w, mv, acc(), gt, &u, desc))),
        ("kronecker", "kronecker", Mat(&|c| ctx.kronecker(c, mm, acc(), times, &half, &half, desc))),
        ("transpose", "transpose", Mat(&|c| ctx.transpose(c, mm, acc(), &a, desc))),
    ];
    table
        .into_iter()
        .map(|(name, err_op, call)| {
            let (mut c, mut w) = (c_old.clone(), w_old.clone());
            let got = catch_unwind(AssertUnwindSafe(|| match call {
                Mat(f) => f(&mut c),
                V(f) => f(&mut w),
            }));
            (name, err_op, c == c_old && w == w_old, got.ok())
        })
        .collect()
}

/// A structural mask of dimension `n` (a matrix and a vector of it) with an
/// entry in its last position, so an oversized one reaches past the output.
fn masks(n: usize) -> (Matrix<bool>, Vector<bool>) {
    let last = n - 1;
    (
        Matrix::build(
            n,
            n,
            [(0usize, 0usize, true), (last, last, true)],
            Second::new(),
        )
        .unwrap(),
        Vector::build(n, [(0usize, true), (last, true)], Second::new()).unwrap(),
    )
}

fn every_masked_op_rejects_a_misshapen_mask<B: Backend>(ctx: Context<B>) {
    let descs = [
        Descriptor::new(),
        Descriptor::new().complement_mask().replace(),
    ];
    let mut wrong = Vec::new();
    for (size, n) in [("smaller", N - 1), ("larger", N + 1)] {
        let (mm, mv) = masks(n);
        for desc in &descs {
            for (name, err_op, untouched, got) in masked_ops(&ctx, &mm, &mv, desc) {
                let rejected = matches!(
                    &got,
                    Some(Err(GblasError::DimensionMismatch { op, .. })) if *op == err_op
                );
                if !(rejected && untouched) {
                    let got = got.map_or("panicked".into(), |r| format!("{r:?}"));
                    wrong.push(format!(
                        "{name} on {} under a {size} mask ({desc:?}): {got}, output {}",
                        ctx.backend_name(),
                        if untouched { "untouched" } else { "changed" },
                    ));
                }
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{} wrong:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

#[test]
fn a_misshapen_mask_is_a_dimension_mismatch_on_every_masked_op() {
    every_masked_op_rejects_a_misshapen_mask(Context::sequential());
    every_masked_op_rejects_a_misshapen_mask(Context::parallel_with_threads(2));
    every_masked_op_rejects_a_misshapen_mask(Context::cuda_default());
}

/// The control: the same fourteen calls under a mask of the output's shape
/// all succeed, so the table above rejects the mask and nothing else.
#[test]
fn the_same_calls_under_a_well_shaped_mask_succeed() {
    let (mm, mv) = masks(N);
    for (name, _, _, got) in masked_ops(&Context::sequential(), &mm, &mv, &Descriptor::new()) {
        assert_eq!(got, Some(Ok(())), "{name}");
    }
}
