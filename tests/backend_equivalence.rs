//! Differential tests: every frontend operation must produce identical
//! results on the sequential, parallel-CPU and simulated-CUDA backends,
//! across random inputs. This is the contract that makes the backends
//! interchangeable — and for `ParBackend` the stronger contract that the
//! output is bit-identical to `SeqBackend` at *every* thread count.

use gbtl::algebra::{
    CustomSemiring, First, Min, MinMonoid, MinPlus, MinSecond, Minus, Plus, PlusMonoid, PlusTimes,
    Scalar, Second, Semiring, Times,
};
use gbtl::backend_seq as seq;
use gbtl::prelude::*;
use gbtl::sparse::{CooMatrix, CsrMatrix, DenseVector, VecMask};
use proptest::prelude::*;
use std::ops::Range;

/// Structural retype: any stored entry becomes `true`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ToTrue;

impl gbtl::algebra::UnaryOp<i64> for ToTrue {
    type Output = bool;
    fn apply(&self, _a: i64) -> bool {
        true
    }
}

type Mat = Matrix<i64>;

fn arb_matrix(n: usize, max_nnz: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec((0..n, 0..n, -20i64..20), 0..max_nnz)
        .prop_map(move |triples| Matrix::build(n, n, triples, Second::new()).expect("in bounds"))
}

fn arb_vector(n: usize) -> impl Strategy<Value = Vector<i64>> {
    proptest::collection::vec((0..n, -20i64..20), 0..n * 2).prop_map(move |pairs| {
        let mut v = Vector::new(n);
        for (i, x) in pairs {
            v.set(i, x);
        }
        v
    })
}

fn arb_mask(n: usize) -> impl Strategy<Value = Vector<bool>> {
    proptest::collection::vec(0..n, 0..n).prop_map(move |idx| {
        let mut v = Vector::new(n);
        for i in idx {
            v.set(i, true);
        }
        v
    })
}

const N: usize = 12;

/// `w<mask> = A +.× u` on `ctx`, as `(index, value bits)` pairs.
fn pull<B: Backend, T: Scalar>(
    ctx: &Context<B>,
    mask: Option<&Vector<bool>>,
    a: &Matrix<T>,
    u: &Vector<T>,
    desc: &Descriptor,
    bits: impl Fn(T) -> u64,
) -> Vec<(usize, u64)>
where
    PlusTimes<T>: Semiring<T, T, T>,
{
    let mut w = Vector::new(a.nrows());
    ctx.mxv(&mut w, mask, no_accum(), PlusTimes::new(), a, u, desc)
        .unwrap();
    w.iter().map(|(i, v)| (i, bits(v))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mxm_matches(a in arb_matrix(N, 50), b in arb_matrix(N, 50)) {
        let mut c1 = Matrix::new(N, N);
        let mut c2 = Matrix::new(N, N);
        Context::sequential()
            .mxm(&mut c1, None, no_accum(), PlusTimes::new(), &a, &b, &Descriptor::new())
            .unwrap();
        Context::cuda_default()
            .mxm(&mut c2, None, no_accum(), PlusTimes::new(), &a, &b, &Descriptor::new())
            .unwrap();
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn mxm_min_plus_matches(a in arb_matrix(N, 50), b in arb_matrix(N, 50)) {
        // tropical semiring on non-negative weights
        let seq = Context::sequential();
        let ap = seq.apply_mat_new(gbtl::algebra::Abs::<i64>::new(), &a);
        let bp = seq.apply_mat_new(gbtl::algebra::Abs::<i64>::new(), &b);
        let mut c1 = Matrix::new(N, N);
        let mut c2 = Matrix::new(N, N);
        seq.mxm(&mut c1, None, no_accum(), MinPlus::new(), &ap, &bp, &Descriptor::new())
            .unwrap();
        Context::cuda_default()
            .mxm(&mut c2, None, no_accum(), MinPlus::new(), &ap, &bp, &Descriptor::new())
            .unwrap();
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn masked_mxm_matches(a in arb_matrix(N, 50), b in arb_matrix(N, 50), m in arb_matrix(N, 40)) {
        let mask = Context::sequential().apply_mat_new(ToTrue, &m);
        let mut c1 = Matrix::new(N, N);
        let mut c2 = Matrix::new(N, N);
        Context::sequential()
            .mxm(&mut c1, Some(&mask), no_accum(), PlusTimes::new(), &a, &b, &Descriptor::new())
            .unwrap();
        Context::cuda_default()
            .mxm(&mut c2, Some(&mask), no_accum(), PlusTimes::new(), &a, &b, &Descriptor::new())
            .unwrap();
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn mxv_matches(a in arb_matrix(N, 60), u in arb_vector(N), mask in arb_mask(N), comp: bool) {
        let desc = if comp { Descriptor::new().complement_mask() } else { Descriptor::new() };
        let mut w1 = Vector::new(N);
        let mut w2 = Vector::new(N);
        Context::sequential()
            .mxv(&mut w1, Some(&mask), no_accum(), PlusTimes::new(), &a, &u, &desc)
            .unwrap();
        Context::cuda_default()
            .mxv(&mut w2, Some(&mask), no_accum(), PlusTimes::new(), &a, &u, &desc)
            .unwrap();
        prop_assert_eq!(w1, w2);
    }

    #[test]
    fn mxv_kernels_match(a in arb_matrix(N, 60), u in arb_vector(N), mask in arb_mask(N)) {
        // every pull kernel returns seq's result, bit for bit: no mask, a
        // mask and its complement, over i64 and over f64 whose sums round
        let af = Matrix::build(N, N, a.iter().map(|(i, j, v)| (i, j, v as f64 / 3.0)), Second::new())
            .expect("in bounds");
        let uf = Vector::build(N, u.iter().map(|(i, v)| (i, v as f64 / 7.0)), Second::new())
            .expect("in bounds");
        let seq = Context::sequential();
        for kernel in [SpmvKernel::Scalar, SpmvKernel::Vector, SpmvKernel::Ell, SpmvKernel::Hyb] {
            let cuda = Context::cuda_default().with_spmv_kernel(kernel);
            for (m, desc) in [
                (None, Descriptor::new()),
                (Some(&mask), Descriptor::new()),
                (Some(&mask), Descriptor::new().complement_mask()),
            ] {
                prop_assert_eq!(
                    pull(&seq, m, &a, &u, &desc, |v| v as u64),
                    pull(&cuda, m, &a, &u, &desc, |v| v as u64),
                    "i64 {:?}", kernel
                );
                prop_assert_eq!(
                    pull(&seq, m, &af, &uf, &desc, f64::to_bits),
                    pull(&cuda, m, &af, &uf, &desc, f64::to_bits),
                    "f64 {:?}", kernel
                );
            }
        }
    }

    #[test]
    fn vxm_matches(a in arb_matrix(N, 60), u in arb_vector(N)) {
        let mut w1 = Vector::new(N);
        let mut w2 = Vector::new(N);
        Context::sequential()
            .vxm(&mut w1, None, no_accum(), MinSecond::new(), &u, &a, &Descriptor::new())
            .unwrap();
        Context::cuda_default()
            .vxm(&mut w2, None, no_accum(), MinSecond::new(), &u, &a, &Descriptor::new())
            .unwrap();
        prop_assert_eq!(w1, w2);
    }

    #[test]
    fn ewise_matches(a in arb_matrix(N, 60), b in arb_matrix(N, 60)) {
        for union in [true, false] {
            let mut c1 = Matrix::new(N, N);
            let mut c2 = Matrix::new(N, N);
            let (s, c) = (Context::sequential(), Context::cuda_default());
            if union {
                s.ewise_add_mat(&mut c1, None, no_accum(), Plus::new(), &a, &b, &Descriptor::new()).unwrap();
                c.ewise_add_mat(&mut c2, None, no_accum(), Plus::new(), &a, &b, &Descriptor::new()).unwrap();
            } else {
                s.ewise_mult_mat(&mut c1, None, no_accum(), Times::new(), &a, &b, &Descriptor::new()).unwrap();
                c.ewise_mult_mat(&mut c2, None, no_accum(), Times::new(), &a, &b, &Descriptor::new()).unwrap();
            }
            prop_assert_eq!(c1, c2);
        }
    }

    #[test]
    fn transpose_and_reduce_match(a in arb_matrix(N, 60)) {
        let mut t1 = Matrix::new(N, N);
        let mut t2 = Matrix::new(N, N);
        Context::sequential().transpose(&mut t1, None, no_accum(), &a, &Descriptor::new()).unwrap();
        Context::cuda_default().transpose(&mut t2, None, no_accum(), &a, &Descriptor::new()).unwrap();
        prop_assert_eq!(&t1, &t2);

        prop_assert_eq!(
            Context::sequential().reduce_mat_scalar(PlusMonoid::<i64>::new(), &a),
            Context::cuda_default().reduce_mat_scalar(PlusMonoid::<i64>::new(), &a)
        );

        let mut r1 = Vector::new(N);
        let mut r2 = Vector::new(N);
        Context::sequential()
            .reduce_rows(&mut r1, None, no_accum(), PlusMonoid::<i64>::new(), &a, &Descriptor::new())
            .unwrap();
        Context::cuda_default()
            .reduce_rows(&mut r2, None, no_accum(), PlusMonoid::<i64>::new(), &a, &Descriptor::new())
            .unwrap();
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn accum_and_replace_match(a in arb_matrix(N, 50), b in arb_matrix(N, 50),
                               old in arb_matrix(N, 40), m in arb_matrix(N, 40),
                               replace: bool) {
        let mask = Context::sequential().apply_mat_new(ToTrue, &m);
        let desc = if replace { Descriptor::new().replace() } else { Descriptor::new() };
        let mut c1 = old.clone();
        let mut c2 = old.clone();
        Context::sequential()
            .ewise_add_mat(&mut c1, Some(&mask), Some(Min::<i64>::new()), Plus::new(), &a, &b, &desc)
            .unwrap();
        Context::cuda_default()
            .ewise_add_mat(&mut c2, Some(&mask), Some(Min::<i64>::new()), Plus::new(), &a, &b, &desc)
            .unwrap();
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn extract_assign_match(a in arb_matrix(N, 60),
                            rows in proptest::collection::vec(0..N, 1..6),
                            cols in proptest::collection::vec(0..N, 1..6)) {
        let s = Context::sequential().extract_mat(&a, &rows, &cols).unwrap();
        let c = Context::cuda_default().extract_mat(&a, &rows, &cols).unwrap();
        prop_assert_eq!(&s, &c);

        // assign back requires unique target indices
        let mut ur: Vec<usize> = rows.clone();
        ur.sort_unstable();
        ur.dedup();
        let mut uc: Vec<usize> = cols.clone();
        uc.sort_unstable();
        uc.dedup();
        let patch = Context::sequential().extract_mat(&a, &ur, &uc).unwrap();
        let mut c1 = a.clone();
        let mut c2 = a.clone();
        Context::sequential().assign_mat(&mut c1, &patch, &ur, &uc).unwrap();
        Context::cuda_default().assign_mat(&mut c2, &patch, &ur, &uc).unwrap();
        prop_assert_eq!(c1, c2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn select_matches(a in arb_matrix(N, 60), threshold in -20i64..20) {
        use gbtl::algebra::{TriL, TriU, ValueGt, Diag, OffDiag};
        let seq = Context::sequential();
        let cuda = Context::cuda_default();
        prop_assert_eq!(seq.select_mat_new(TriL, &a), cuda.select_mat_new(TriL, &a));
        prop_assert_eq!(seq.select_mat_new(TriU, &a), cuda.select_mat_new(TriU, &a));
        prop_assert_eq!(seq.select_mat_new(Diag, &a), cuda.select_mat_new(Diag, &a));
        prop_assert_eq!(seq.select_mat_new(OffDiag, &a), cuda.select_mat_new(OffDiag, &a));
        prop_assert_eq!(
            seq.select_mat_new(ValueGt(threshold), &a),
            cuda.select_mat_new(ValueGt(threshold), &a)
        );
        // selecting everything is the identity
        prop_assert_eq!(
            seq.select_mat_new(ValueGt(i64::MIN), &a),
            a.clone()
        );
    }

    #[test]
    fn select_partitions_structure(a in arb_matrix(N, 60)) {
        use gbtl::algebra::{TriL, TriU, Diag};
        let ctx = Context::sequential();
        let l = ctx.select_mat_new(TriL, &a);
        let u = ctx.select_mat_new(TriU, &a);
        let d = ctx.select_mat_new(Diag, &a);
        prop_assert_eq!(l.nnz() + u.nnz() + d.nnz(), a.nnz());
    }

    #[test]
    fn kronecker_matches(a in arb_matrix(5, 12), b in arb_matrix(4, 10)) {
        use gbtl::algebra::Times;
        let mut c1 = Matrix::new(20, 20);
        let mut c2 = Matrix::new(20, 20);
        Context::sequential()
            .kronecker(&mut c1, None, no_accum(), Times::new(), &a, &b, &Descriptor::new())
            .unwrap();
        Context::cuda_default()
            .kronecker(&mut c2, None, no_accum(), Times::new(), &a, &b, &Descriptor::new())
            .unwrap();
        prop_assert_eq!(&c1, &c2);
        // nnz multiplies; every entry decomposes into its factors
        prop_assert_eq!(c1.nnz(), a.nnz() * b.nnz());
        for (i, j, v) in c1.iter() {
            let (ai, bi) = (i / 4, i % 4);
            let (aj, bj) = (j / 4, j % 4);
            let expect = a.get(ai, aj).unwrap() * b.get(bi, bj).unwrap();
            prop_assert_eq!(v, expect);
        }
    }

    #[test]
    fn ell_and_hyb_kernels_match_csr(a in arb_matrix(N, 60), u in arb_vector(N)) {
        // the ELL and HYB kernels charge their own layouts but fold the one
        // CSR operand: the result is seq's CSR mxv, called below the frontend
        let af = a.csr();
        let ud = u.to_dense_repr();
        let expected = gbtl::backend_seq::mxv(af, &ud, PlusTimes::<i64>::new(), None);

        for kernel in [SpmvKernel::Ell, SpmvKernel::Hyb] {
            let cuda = CudaBackend::default().with_spmv_kernel(kernel);
            prop_assert_eq!(
                &cuda.mxv(af, &ud, PlusTimes::<i64>::new(), None::<gbtl::sparse::VecMask<'_>>),
                &expected,
                "{:?}", kernel
            );
        }
    }
}

// ---------------------------------------------------------------------------
// ParBackend vs SeqBackend: bit-for-bit over the whole `Backend` trait, at
// 1, 2, 4 and 8 worker threads. These call the backend trait directly (below
// the frontend) so every one of its methods is exercised.
// ---------------------------------------------------------------------------

const PAR_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Rows of the wide pull inputs: more than three 64-row presence words and
/// not a whole number of them, so par's row cuts land mid-word.
const WIDE: usize = 200;

/// Entries in the large f64 reduce inputs: past three 4 096-entry blocks.
const BIG: Range<usize> = 3 * 4096 + 1..4 * 4096;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn par_mxm_family_matches_seq(a in arb_matrix(N, 60), b in arb_matrix(N, 60),
                                  m in arb_matrix(N, 40)) {
        let (a, b) = (a.csr(), b.csr());
        let mask = gbtl::backend_seq::apply_mat(m.csr(), ToTrue);
        let seq = SeqBackend;
        for t in PAR_THREADS {
            let par = ParBackend::with_threads(t);
            prop_assert_eq!(
                par.mxm(a, b, PlusTimes::<i64>::new()),
                seq.mxm(a, b, PlusTimes::<i64>::new())
            );
            prop_assert_eq!(
                par.mxm(a, b, MinPlus::<i64>::new()),
                seq.mxm(a, b, MinPlus::<i64>::new())
            );
            prop_assert_eq!(
                par.mxm_masked(&mask, a, b, PlusTimes::<i64>::new()),
                seq.mxm_masked(&mask, a, b, PlusTimes::<i64>::new())
            );
            prop_assert_eq!(
                par.kronecker(a, b, Times::<i64>::new()),
                seq.kronecker(a, b, Times::<i64>::new())
            );
        }
    }

    #[test]
    fn par_spmv_matches_seq(a in arb_matrix(N, 60), u in arb_vector(N), mask in arb_mask(N),
                            wide in arb_matrix(WIDE, 1200), wide_u in arb_vector(WIDE),
                            wide_mask in arb_mask(WIDE)) {
        let a = a.csr();
        let ud = u.to_dense_repr();
        let us = u.to_sparse_repr();
        let keep = mask.to_dense_repr();
        let (wide, wide_u, wide_keep) = (wide.csr(), wide_u.to_dense_repr(), wide_mask.to_dense_repr());
        let seq = SeqBackend;
        for t in PAR_THREADS {
            let par = ParBackend::with_threads(t);
            for c in [None, Some(false), Some(true)] {
                let m = c.map(|c| VecMask::new(&wide_keep, c));
                prop_assert_eq!(
                    par.mxv(wide, &wide_u, PlusTimes::<i64>::new(), m),
                    seq.mxv(wide, &wide_u, PlusTimes::<i64>::new(), m)
                );
            }
            for m in [None, Some(VecMask::new(&keep, false))] {
                prop_assert_eq!(
                    par.mxv(a, &ud, PlusTimes::<i64>::new(), m),
                    seq.mxv(a, &ud, PlusTimes::<i64>::new(), m)
                );
                prop_assert_eq!(
                    par.vxm(&us, a, MinSecond::<i64>::new(), m),
                    seq.vxm(&us, a, MinSecond::<i64>::new(), m)
                );
                prop_assert_eq!(
                    par.vxm(&us, a, PlusTimes::<i64>::new(), m),
                    seq.vxm(&us, a, PlusTimes::<i64>::new(), m)
                );
            }
        }
    }

    #[test]
    fn par_ewise_matches_seq(a in arb_matrix(N, 60), b in arb_matrix(N, 60),
                             u in arb_vector(N), v in arb_vector(N)) {
        let (ac, bc) = (a.csr(), b.csr());
        let (us, vs) = (u.to_sparse_repr(), v.to_sparse_repr());
        let (ud, vd) = (u.to_dense_repr(), v.to_dense_repr());
        let seq = SeqBackend;
        for t in PAR_THREADS {
            let par = ParBackend::with_threads(t);
            prop_assert_eq!(
                par.ewise_add_mat(ac, bc, Plus::<i64>::new()),
                seq.ewise_add_mat(ac, bc, Plus::<i64>::new())
            );
            prop_assert_eq!(
                par.ewise_mult_mat(ac, bc, Times::<i64>::new()),
                seq.ewise_mult_mat(ac, bc, Times::<i64>::new())
            );
            prop_assert_eq!(
                par.ewise_add_vec(&us, &vs, Min::<i64>::new()),
                seq.ewise_add_vec(&us, &vs, Min::<i64>::new())
            );
            prop_assert_eq!(
                par.ewise_mult_vec(&ud, &vd, Times::<i64>::new()),
                seq.ewise_mult_vec(&ud, &vd, Times::<i64>::new())
            );
        }
    }

    #[test]
    fn par_apply_select_matches_seq(a in arb_matrix(N, 60), u in arb_vector(N),
                                    threshold in -20i64..20) {
        use gbtl::algebra::{AdditiveInverse, Diag, OffDiag, TriL, TriU, ValueGt};
        let ac = a.csr();
        let us = u.to_sparse_repr();
        let ud = u.to_dense_repr();
        let seq = SeqBackend;
        for t in PAR_THREADS {
            let par = ParBackend::with_threads(t);
            prop_assert_eq!(
                par.apply_mat(ac, AdditiveInverse::<i64>::new()),
                seq.apply_mat(ac, AdditiveInverse::<i64>::new())
            );
            prop_assert_eq!(par.apply_mat(ac, ToTrue), seq.apply_mat(ac, ToTrue));
            prop_assert_eq!(
                par.apply_sparse_vec(&us, AdditiveInverse::<i64>::new()),
                seq.apply_sparse_vec(&us, AdditiveInverse::<i64>::new())
            );
            prop_assert_eq!(
                par.apply_dense_vec(&ud, AdditiveInverse::<i64>::new()),
                seq.apply_dense_vec(&ud, AdditiveInverse::<i64>::new())
            );
            prop_assert_eq!(par.select_mat(ac, TriL), seq.select_mat(ac, TriL));
            prop_assert_eq!(par.select_mat(ac, TriU), seq.select_mat(ac, TriU));
            prop_assert_eq!(par.select_mat(ac, Diag), seq.select_mat(ac, Diag));
            prop_assert_eq!(par.select_mat(ac, OffDiag), seq.select_mat(ac, OffDiag));
            prop_assert_eq!(
                par.select_mat(ac, ValueGt(threshold)),
                seq.select_mat(ac, ValueGt(threshold))
            );
            prop_assert_eq!(
                par.select_vec(&us, ValueGt(threshold)),
                seq.select_vec(&us, ValueGt(threshold))
            );
        }
    }

    #[test]
    fn par_reduce_transpose_matches_seq(a in arb_matrix(N, 60), u in arb_vector(N),
                                        big_a in proptest::collection::vec(-1e3f64..1e3, BIG),
                                        big_u in proptest::collection::vec(-1e3f64..1e3, BIG)) {
        use gbtl::algebra::{MaxMonoid, MinMonoid};
        let ac = a.csr();
        let us = u.to_sparse_repr();
        let ud = u.to_dense_repr();
        // more than three 4 096-entry blocks of f64: a blocked fold
        // reassociates `+`, so only the sequential left fold matches
        let mut coo = CooMatrix::new(128, 128);
        for (k, &v) in big_a.iter().enumerate() {
            coo.push(k / 128, k % 128, v);
        }
        let big_a = CsrMatrix::from_coo(coo, |x, _| x);
        let big_u = DenseVector::from_values(big_u);
        let fsum = PlusMonoid::<f64>::new();
        let seq = SeqBackend;
        for t in PAR_THREADS {
            let par = ParBackend::with_threads(t);
            prop_assert_eq!(
                par.reduce_mat(&big_a, fsum).map(f64::to_bits),
                seq.reduce_mat(&big_a, fsum).map(f64::to_bits)
            );
            prop_assert_eq!(
                par.reduce_dense_vec(&big_u, fsum).map(f64::to_bits),
                seq.reduce_dense_vec(&big_u, fsum).map(f64::to_bits)
            );
            prop_assert_eq!(
                par.reduce_mat(ac, PlusMonoid::<i64>::new()),
                seq.reduce_mat(ac, PlusMonoid::<i64>::new())
            );
            prop_assert_eq!(
                par.reduce_mat(ac, MinMonoid::<i64>::new()),
                seq.reduce_mat(ac, MinMonoid::<i64>::new())
            );
            prop_assert_eq!(
                par.reduce_rows(ac, MaxMonoid::<i64>::new()),
                seq.reduce_rows(ac, MaxMonoid::<i64>::new())
            );
            prop_assert_eq!(
                par.reduce_dense_vec(&ud, PlusMonoid::<i64>::new()),
                seq.reduce_dense_vec(&ud, PlusMonoid::<i64>::new())
            );
            prop_assert_eq!(
                par.reduce_sparse_vec(&us, PlusMonoid::<i64>::new()),
                seq.reduce_sparse_vec(&us, PlusMonoid::<i64>::new())
            );
            prop_assert_eq!(par.transpose(ac), seq.transpose(ac));
        }
    }

    #[test]
    fn par_build_extract_assign_matches_seq(
        triples in proptest::collection::vec((0..N, 0..N, -20i64..20), 0..80),
        a in arb_matrix(N, 60), u in arb_vector(N),
        rows in proptest::collection::vec(0..N, 1..6),
        cols in proptest::collection::vec(0..N, 1..6)) {
        let mut coo = gbtl::sparse::CooMatrix::new(N, N);
        for &(i, j, v) in &triples {
            coo.push(i, j, v);
        }
        let ac = a.csr();
        let ud = u.to_dense_repr();
        let seq = SeqBackend;
        let mut ur = rows.clone();
        ur.sort_unstable();
        ur.dedup();
        let mut uc = cols.clone();
        uc.sort_unstable();
        uc.dedup();
        let patch = seq.extract_mat(ac, &ur, &uc);
        let upatch = seq.extract_vec(&ud, &ur);
        for t in PAR_THREADS {
            let par = ParBackend::with_threads(t);
            prop_assert_eq!(
                par.build(&coo, Plus::<i64>::new()),
                seq.build(&coo, Plus::<i64>::new())
            );
            prop_assert_eq!(par.extract_mat(ac, &rows, &cols), seq.extract_mat(ac, &rows, &cols));
            prop_assert_eq!(
                par.assign_mat(ac, &patch, &ur, &uc),
                seq.assign_mat(ac, &patch, &ur, &uc)
            );
            prop_assert_eq!(par.extract_vec(&ud, &rows), seq.extract_vec(&ud, &rows));
            prop_assert_eq!(
                par.assign_vec(&ud, &upatch, &ur),
                seq.assign_vec(&ud, &upatch, &ur)
            );
        }
    }

    #[test]
    fn par_frontend_ops_match_seq(a in arb_matrix(N, 60), b in arb_matrix(N, 60),
                                  u in arb_vector(N), mask in arb_mask(N), comp: bool) {
        // Same ops through the full frontend (masks, descriptors, accum
        // stitching) on a parallel context.
        let desc = if comp { Descriptor::new().complement_mask() } else { Descriptor::new() };
        for t in PAR_THREADS {
            let par = Context::parallel_with_threads(t);
            let seq = Context::sequential();

            let mut c1 = Matrix::new(N, N);
            let mut c2 = Matrix::new(N, N);
            seq.mxm(&mut c1, None, no_accum(), PlusTimes::new(), &a, &b, &Descriptor::new())
                .unwrap();
            par.mxm(&mut c2, None, no_accum(), PlusTimes::new(), &a, &b, &Descriptor::new())
                .unwrap();
            prop_assert_eq!(c1, c2);

            let mut w1 = Vector::new(N);
            let mut w2 = Vector::new(N);
            seq.mxv(&mut w1, Some(&mask), no_accum(), PlusTimes::new(), &a, &u, &desc)
                .unwrap();
            par.mxv(&mut w2, Some(&mask), no_accum(), PlusTimes::new(), &a, &u, &desc)
                .unwrap();
            prop_assert_eq!(w1, w2);

            let mut e1 = Matrix::new(N, N);
            let mut e2 = Matrix::new(N, N);
            seq.ewise_add_mat(&mut e1, None, no_accum(), Plus::new(), &a, &b, &Descriptor::new())
                .unwrap();
            par.ewise_add_mat(&mut e2, None, no_accum(), Plus::new(), &a, &b, &Descriptor::new())
                .unwrap();
            prop_assert_eq!(e1, e2);
        }
    }
}

/// The four float reductions of `B`, down to the bits: `reduce_mat`,
/// `reduce_dense_vec`, `reduce_sparse_vec` over `big`, and `reduce_rows` of
/// `rows`.
fn float_reductions<B: Backend>(
    be: &B,
    big: &CsrMatrix<f64>,
    rows: &CsrMatrix<f64>,
) -> Vec<Option<u64>> {
    let fsum = PlusMonoid::<f64>::new();
    let dense = DenseVector::from_values(big.vals().to_vec());
    let per_row = be.reduce_rows(rows, fsum);
    let mut out = vec![
        be.reduce_mat(big, fsum),
        be.reduce_dense_vec(&dense, fsum),
        be.reduce_sparse_vec(&dense.to_sparse(), fsum),
    ];
    out.extend(per_row.values().iter().map(|&v| Some(v)));
    out.into_iter().map(|x| x.map(f64::to_bits)).collect()
}

/// Every backend's float reduction is seq's left fold, seeded by the first
/// entry — the trait's bit-for-bit contract. A blocked tree folded from the
/// identity breaks it twice: `1e16` followed by 12 288 ones sums to `1e16`
/// one at a time but not 4 096 at a time, and `0.0 + -0.0` drops the sign
/// of a row holding only `-0.0`.
#[test]
fn float_reductions_match_seq_bit_for_bit() {
    let mut coo = CooMatrix::new(1, 1 + 3 * 4096);
    coo.push(0, 0, 1e16);
    for j in 1..coo.ncols() {
        coo.push(0, j, 1.0);
    }
    let big = CsrMatrix::from_coo(coo, |x, _| x);
    let mut coo = CooMatrix::new(3, 2);
    coo.push(1, 0, -0.0);
    coo.push(2, 0, 2.5);
    coo.push(2, 1, -0.0);
    let rows = CsrMatrix::from_coo(coo, |x, _| x);

    let want = float_reductions(&SeqBackend, &big, &rows);
    let (sum, neg_zero, half) = (1e16f64.to_bits(), (-0.0f64).to_bits(), 2.5f64.to_bits());
    assert_eq!(
        want,
        [sum, sum, sum, neg_zero, half].map(Some),
        "seq is the left fold"
    );
    for t in PAR_THREADS {
        let par = ParBackend::with_threads(t);
        assert_eq!(float_reductions(&par, &big, &rows), want, "par({t})");
    }
    let cuda = CudaBackend::default();
    assert_eq!(float_reductions(&cuda, &big, &rows), want, "cuda-sim");
}

// ---------------------------------------------------------------------------
// One CPU kernel source. Every row-oriented kernel of the sequential backend
// has a `*_rows` form, the whole-matrix function is that form over `0..m`,
// and `ParBackend` schedules the same form over nnz-balanced ranges. The
// contract that makes any schedule safe: for ANY partition of `0..m` — empty
// chunks, one-row chunks, cuts on empty rows, `m = 0` — the stitched
// fragments are the whole-matrix result, bit for bit.
// ---------------------------------------------------------------------------

type Triples = Vec<(usize, usize, i64)>;

fn arb_triples() -> impl Strategy<Value = Triples> {
    proptest::collection::vec((0..N, 0..N, -20i64..20), 0..60)
}

/// A row count `m ≤ N` and a partition of `0..m` at arbitrary cut points
/// (repeated cuts and cuts at `0`/`m` give empty chunks).
fn arb_partition() -> impl Strategy<Value = (usize, Vec<Range<usize>>)> {
    (0..=N)
        .prop_flat_map(|m| (Just(m), proptest::collection::vec(0..=m, 0..6)))
        .prop_map(|(m, mut cuts)| {
            cuts.sort_unstable();
            let bounds: Vec<usize> = [0].into_iter().chain(cuts).chain([m]).collect();
            (m, bounds.windows(2).map(|w| w[0]..w[1]).collect())
        })
}

/// The triples with row `< m`, as an `m × N` CSR of `f(value)`.
fn csr_of<T: Scalar>(m: usize, triples: &Triples, f: impl Fn(i64) -> T) -> CsrMatrix<T> {
    let mut coo = CooMatrix::new(m, N);
    for &(i, j, v) in triples.iter().filter(|t| t.0 < m) {
        coo.push(i, j, f(v));
    }
    CsrMatrix::from_coo(coo, |_, later| later)
}

/// Sevenths: sums of them round, so a changed fold order changes bits.
fn seventh(v: i64) -> f64 {
    v as f64 / 7.0
}

fn stitched<T: Scalar>(
    m: usize,
    parts: &[Range<usize>],
    kernel: impl Fn(Range<usize>) -> seq::RowChunk<T>,
) -> CsrMatrix<T> {
    seq::stitch_rows(m, N, parts.iter().cloned().map(kernel).collect())
}

fn joined<T: Scalar>(
    parts: &[Range<usize>],
    kernel: impl Fn(Range<usize>) -> DenseVector<T>,
) -> Vec<Option<T>> {
    let segments = parts.iter().cloned().map(kernel);
    segments.flat_map(|seg| options(&seg)).collect()
}

/// A dense vector holding `u`'s present entries.
fn dense<T: Scalar>(u: &[Option<T>]) -> DenseVector<T> {
    let mut d = DenseVector::new(u.len());
    for (i, v) in u.iter().enumerate() {
        if let Some(v) = *v {
            d.set(i, v);
        }
    }
    d
}

/// One `Option` per position of `d`.
fn options<T: Scalar>(d: &DenseVector<T>) -> Vec<Option<T>> {
    (0..d.len()).map(|i| d.get(i)).collect()
}

/// A float matrix down to the bits of its values.
fn bits(c: &CsrMatrix<f64>) -> (&[usize], &[usize], Vec<u64>) {
    let vals = c.vals().iter().map(|v| v.to_bits()).collect();
    (c.row_ptr(), c.col_idx(), vals)
}

fn opt_bits(w: &[Option<f64>]) -> Vec<Option<u64>> {
    w.iter().map(|o| o.map(f64::to_bits)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_row_partition_stitches_to_the_whole_kernel(
        (m, parts) in arb_partition(),
        ta in arb_triples(), tb in arb_triples(), tk in arb_triples(), tm in arb_triples(),
        u in proptest::collection::vec(proptest::option::of(-20i64..20), N),
        keep in proptest::collection::vec(any::<bool>(), N),
    ) {
        let parts = &parts[..];
        // `a`, `b`, the mask: m × N; `k`, the right operand of a product: N × N.
        let (a, b, k) = (csr_of(m, &ta, |v| v), csr_of(m, &tb, |v| v), csr_of(N, &tk, |v| v));
        let (af, bf, kf) = (csr_of(m, &ta, seventh), csr_of(m, &tb, seventh), csr_of(N, &tk, seventh));
        let mask = csr_of(m, &tm, |_| true);
        let ud = dense(&u);
        let uf = dense(&u.iter().map(|o| o.map(seventh)).collect::<Vec<_>>());
        let kept = dense(&keep[..m].iter().map(|&k| k.then_some(true)).collect::<Vec<_>>());
        // a non-commutative multiply: swapped operands or a reordered fold show
        let min_minus = CustomSemiring::new(MinMonoid::<i64>::new(), Minus::<i64>::new());
        let plus_first = CustomSemiring::new(PlusMonoid::<i64>::new(), First::<i64>::new());
        let fsr = PlusTimes::<f64>::new();

        // mxm, plain and masked
        prop_assert_eq!(
            stitched(m, parts, |r| seq::mxm_rows(&a, &k, min_minus, r)),
            seq::mxm(&a, &k, min_minus)
        );
        prop_assert_eq!(
            bits(&stitched(m, parts, |r| seq::mxm_rows(&af, &kf, fsr, r))),
            bits(&seq::mxm(&af, &kf, fsr))
        );
        prop_assert_eq!(
            stitched(m, parts, |r| seq::mxm_masked_rows(&mask, &a, &k, plus_first, r)),
            seq::mxm_masked(&mask, &a, &k, plus_first)
        );
        prop_assert_eq!(
            bits(&stitched(m, parts, |r| seq::mxm_masked_rows(&mask, &af, &kf, fsr, r))),
            bits(&seq::mxm_masked(&mask, &af, &kf, fsr))
        );

        // mxv, unmasked and under a keep mask over the m output rows
        for mask in [None, Some(VecMask::new(&kept, false))] {
            prop_assert_eq!(
                joined(parts, |r| seq::RowFold::new(min_minus, &a, &ud, mask).mxv_rows(r)),
                options(&seq::mxv(&a, &ud, min_minus, mask))
            );
            prop_assert_eq!(
                opt_bits(&joined(parts, |r| seq::RowFold::new(fsr, &af, &uf, mask).mxv_rows(r))),
                opt_bits(&options(&seq::mxv(&af, &uf, fsr, mask)))
            );
        }

        // eWise merges
        prop_assert_eq!(
            stitched(m, parts, |r| seq::ewise_add_mat_rows(&a, &b, Minus::<i64>::new(), r)),
            seq::ewise_add_mat(&a, &b, Minus::<i64>::new())
        );
        prop_assert_eq!(
            stitched(m, parts, |r| seq::ewise_mult_mat_rows(&a, &b, First::<i64>::new(), r)),
            seq::ewise_mult_mat(&a, &b, First::<i64>::new())
        );
        prop_assert_eq!(
            bits(&stitched(m, parts, |r| seq::ewise_add_mat_rows(&af, &bf, Plus::<f64>::new(), r))),
            bits(&seq::ewise_add_mat(&af, &bf, Plus::<f64>::new()))
        );
        prop_assert_eq!(
            bits(&stitched(m, parts, |r| seq::ewise_mult_mat_rows(&af, &bf, Times::<f64>::new(), r))),
            bits(&seq::ewise_mult_mat(&af, &bf, Times::<f64>::new()))
        );
        // dense vectors of length m (the first m positions of `u` and its reverse)
        let (x, y) = (
            dense(&u[..m]),
            dense(&u.iter().rev().take(m).copied().collect::<Vec<_>>()),
        );
        prop_assert_eq!(
            joined(parts, |r| seq::ewise_mult_vec_rows(&x, &y, Minus::<i64>::new(), r)),
            options(&seq::ewise_mult_vec(&x, &y, Minus::<i64>::new()))
        );

        // select: the predicate reads the absolute row index
        let pred = |i: usize, j: usize, v: i64| i >= j || v > 3;
        prop_assert_eq!(
            stitched(m, parts, |r| seq::select_mat_rows(&a, pred, r)),
            seq::select_mat(&a, pred)
        );

        // reduce_rows: fragments of (index, value) pairs, concatenated
        let whole = seq::reduce_rows(&af, PlusMonoid::<f64>::new());
        let (mut idx, mut vals) = (Vec::new(), Vec::new());
        for r in parts.iter().cloned() {
            let (pidx, pvals) = seq::reduce_rows_range(&af, PlusMonoid::<f64>::new(), r);
            idx.extend(pidx);
            vals.extend(pvals.iter().map(|v| v.to_bits()));
        }
        prop_assert_eq!(&idx[..], whole.indices());
        prop_assert_eq!(vals, whole.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }
}
