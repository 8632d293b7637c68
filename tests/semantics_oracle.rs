//! A dense GraphBLAS semantics oracle.
//!
//! The frontend's output stitching (`C<M, accum, replace> = T`) is subtle:
//! accumulate merges by union, masks gate writes, `replace` clears the
//! complement. This suite re-implements those semantics in the most naive
//! possible way — dense `Option<T>` grids, straight out of the GraphBLAS
//! math spec — and property-tests the real operations against it.

use gbtl::algebra::{
    AdditiveInverse, BinaryOp, Monoid, Plus, PlusMonoid, PlusTimes, Second, Semiring, Times,
    ValueGt,
};
use gbtl::core::Result;
use gbtl::prelude::*;
use proptest::prelude::*;

const N: usize = 8;

type Grid = Vec<Vec<Option<i64>>>;

fn to_grid(m: &Matrix<i64>) -> Grid {
    let mut g = vec![vec![None; m.ncols()]; m.nrows()];
    for (i, j, v) in m.iter() {
        g[i][j] = Some(v);
    }
    g
}

fn to_mask_grid(m: Option<&Matrix<bool>>, complement: bool) -> Vec<Vec<bool>> {
    let mut g = vec![vec![!complement || m.is_none(); N]; N];
    if let Some(m) = m {
        for row in g.iter_mut() {
            for slot in row.iter_mut() {
                *slot = complement;
            }
        }
        for (i, j, _) in m.iter() {
            g[i][j] = !complement;
        }
        // no-mask case handled above; with a mask present, positions not
        // stored are complement
    }
    g
}

/// Spec-level dense mxm over the arithmetic semiring.
fn dense_mxm(a: &Grid, b: &Grid) -> Grid {
    let sr = PlusTimes::<i64>::new();
    let mut t: Grid = vec![vec![None; N]; N];
    #[allow(clippy::needless_range_loop)]
    for i in 0..N {
        for j in 0..N {
            let mut acc: Option<i64> = None;
            for k in 0..N {
                if let (Some(x), Some(y)) = (a[i][k], b[k][j]) {
                    let term = sr.mul().apply(x, y);
                    acc = Some(match acc {
                        Some(v) => sr.add().apply(v, term),
                        None => term,
                    });
                }
            }
            t[i][j] = acc;
        }
    }
    t
}

/// Spec-level output stitch: `C<M, accum, replace> = T`.
fn dense_stitch(c_old: &Grid, t: &Grid, mask: &[Vec<bool>], accum: bool, replace: bool) -> Grid {
    let mut out: Grid = vec![vec![None; N]; N];
    #[allow(clippy::needless_range_loop)]
    for i in 0..N {
        for j in 0..N {
            let z = if accum {
                match (c_old[i][j], t[i][j]) {
                    (Some(a), Some(b)) => Some(a + b),
                    (Some(a), None) => Some(a),
                    (None, b) => b,
                }
            } else {
                t[i][j]
            };
            out[i][j] = if mask[i][j] {
                z
            } else if replace {
                None
            } else {
                c_old[i][j]
            };
        }
    }
    out
}

fn arb_matrix() -> impl Strategy<Value = Matrix<i64>> {
    proptest::collection::vec((0..N, 0..N, -9i64..9), 0..40)
        .prop_map(|t| Matrix::build(N, N, t, Second::new()).expect("in bounds"))
}

fn arb_mask() -> impl Strategy<Value = Option<Matrix<bool>>> {
    proptest::option::of(
        proptest::collection::vec((0..N, 0..N), 0..40).prop_map(|idx| {
            Matrix::build(
                N,
                N,
                idx.into_iter().map(|(i, j)| (i, j, true)),
                Second::new(),
            )
            .expect("in bounds")
        }),
    )
}

/// Each position of `a` and `b` combined: `Some` where `f` says so.
fn zip_grid(a: &Grid, b: &Grid, f: impl Fn(Option<i64>, Option<i64>) -> Option<i64>) -> Grid {
    (0..N)
        .map(|i| (0..N).map(|j| f(a[i][j], b[i][j])).collect())
        .collect()
}

/// A vector as the first row of an otherwise empty grid, so the vector
/// operations are held to the same [`dense_stitch`] as the matrix ones.
fn row_grid<T: Clone + Default>(v: &[T]) -> Vec<Vec<T>> {
    let mut g = vec![vec![T::default(); N]; N];
    g[0] = v.to_vec();
    g
}

/// The stored entries of `m` that lie in its top-left `r x c` corner.
fn corner(m: &Matrix<i64>, r: usize, c: usize) -> Matrix<i64> {
    let inside = m.iter().filter(|&(i, j, _)| i < r && j < c);
    Matrix::build(r, c, inside, Second::new()).expect("in bounds")
}

fn vector(vals: &[Option<i64>], bitmap: bool) -> Vector<i64> {
    let mut v = if bitmap {
        Vector::new_dense(N)
    } else {
        Vector::new(N)
    };
    for (i, x) in vals.iter().enumerate() {
        if let Some(x) = x {
            v.set(i, *x);
        }
    }
    v
}

fn descriptor(complement: bool, replace: bool) -> Descriptor {
    let mut desc = Descriptor::new();
    if complement {
        desc = desc.complement_mask();
    }
    if replace {
        desc = desc.replace();
    }
    desc
}

/// The matrix operations the three properties below do not already cover,
/// as `(op, dense T, the call)` rows: each runs on a fresh copy of `old`
/// and must land on `dense_stitch(old, T, ..)`.
fn check_matrix_ops<B: Backend>(
    ctx: &Context<B>,
    (a, b): (&Matrix<i64>, &Matrix<i64>),
    old: &Matrix<i64>,
    mask: Option<&Matrix<bool>>,
    (complement, accum, replace): (bool, bool, bool),
) {
    let (ga, gb) = (to_grid(a), to_grid(b));
    let (k1, k2) = (corner(a, 2, 2), corner(b, N / 2, N / 2));
    let (g1, g2) = (to_grid(&k1), to_grid(&k2));
    let desc = &descriptor(complement, replace);
    let acc = || accum.then(Plus::<i64>::new);
    let both = |f: fn(i64, i64) -> i64| move |x: Option<i64>, y: Option<i64>| Some(f(x?, y?));
    type Call<'a> = &'a dyn Fn(&mut Matrix<i64>) -> Result<()>;
    #[rustfmt::skip] // one operation a line
    let rows: [(&str, Grid, Call); 5] = [
        ("ewise_mult_mat", zip_grid(&ga, &gb, both(|x, y| x * y)),
            &|c| ctx.ewise_mult_mat(c, mask, acc(), Times::new(), a, b, desc)),
        ("apply_mat", zip_grid(&ga, &ga, |x, _| x.map(|x| -x)),
            &|c| ctx.apply_mat(c, mask, acc(), AdditiveInverse::new(), a, desc)),
        ("select_mat", zip_grid(&ga, &ga, |x, _| x.filter(|&x| x > 0)),
            &|c| ctx.select_mat(c, mask, acc(), ValueGt(0i64), a, desc)),
        ("kronecker", (0..N).map(|i| (0..N).map(|j| {
                Some(g1[i / (N / 2)][j / (N / 2)]? * g2[i % (N / 2)][j % (N / 2)]?)
            }).collect()).collect(),
            &|c| ctx.kronecker(c, mask, acc(), Times::new(), &k1, &k2, desc)),
        ("transpose", (0..N).map(|i| (0..N).map(|j| ga[j][i]).collect()).collect(),
            &|c| ctx.transpose(c, mask, acc(), a, desc)),
    ];
    let mg = to_mask_grid(mask, complement);
    for (op, t, call) in rows {
        let mut c = old.clone();
        call(&mut c).unwrap();
        assert_eq!(
            to_grid(&c),
            dense_stitch(&to_grid(old), &t, &mg, accum, replace),
            "{} on {}: mask={} comp={} accum={} replace={}",
            op,
            ctx.backend_name(),
            mask.is_some(),
            complement,
            accum,
            replace
        );
    }
}

/// The vector operations besides `mxv`, the same way; `old` and `mask`
/// arrive in the storage (index list or bitmap) the property chose.
fn check_vector_ops<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<i64>,
    (u, v): (&[Option<i64>], &[Option<i64>]),
    old: &Vector<i64>,
    mask: Option<&Vector<bool>>,
    (complement, accum, replace): (bool, bool, bool),
) {
    let ga = to_grid(a);
    let (uv, vv) = (&vector(u, false), &vector(v, true));
    let desc = &descriptor(complement, replace);
    let acc = || accum.then(Plus::<i64>::new);
    let sum = |terms: &mut dyn Iterator<Item = Option<i64>>| terms.flatten().reduce(|x, y| x + y);
    let each = |f: &dyn Fn(usize) -> Option<i64>| (0..N).map(f).collect::<Vec<_>>();
    type Call<'a> = &'a dyn Fn(&mut Vector<i64>) -> Result<()>;
    #[rustfmt::skip] // one operation a line
    let rows: [(&str, Vec<Option<i64>>, Call); 6] = [
        ("vxm", each(&|j| sum(&mut (0..N).map(|i| Some(u[i]? * ga[i][j]?)))),
            &|w| ctx.vxm(w, mask, acc(), PlusTimes::new(), uv, a, desc)),
        ("ewise_add_vec", each(&|i| sum(&mut [u[i], v[i]].into_iter())),
            &|w| ctx.ewise_add_vec(w, mask, acc(), Plus::new(), uv, vv, desc)),
        ("ewise_mult_vec", each(&|i| Some(u[i]? * v[i]?)),
            &|w| ctx.ewise_mult_vec(w, mask, acc(), Times::new(), uv, vv, desc)),
        ("apply_vec", each(&|i| u[i].map(|x| -x)),
            &|w| ctx.apply_vec(w, mask, acc(), AdditiveInverse::new(), uv, desc)),
        ("reduce_rows", each(&|i| sum(&mut ga[i].iter().copied())),
            &|w| ctx.reduce_rows(w, mask, acc(), PlusMonoid::new(), a, desc)),
        ("select_vec", each(&|i| v[i].filter(|&x| x > 0)),
            &|w| ctx.select_vec(w, mask, acc(), ValueGt(0i64), vv, desc)),
    ];
    let keep: Vec<bool> = (0..N)
        .map(|i| mask.is_none_or(|m| m.contains(i) != complement))
        .collect();
    let old_row: Vec<Option<i64>> = (0..N).map(|i| old.get(i)).collect();
    for (op, t, call) in rows {
        let mut w = old.clone();
        call(&mut w).unwrap();
        let expect = dense_stitch(
            &row_grid(&old_row),
            &row_grid(&t),
            &row_grid(&keep),
            accum,
            replace,
        );
        assert_eq!(
            (0..N).map(|i| w.get(i)).collect::<Vec<_>>(),
            expect[0].clone(),
            "{} on {}: mask={} comp={} accum={} replace={} bitmap out={}",
            op,
            ctx.backend_name(),
            mask.is_some(),
            complement,
            accum,
            replace,
            !old.is_sparse()
        );
    }
}

/// The three masked products under a mask with no accumulator, into an
/// empty output and into a full one — the cases the pass-through rule
/// splits: a non-complemented mask into an empty output adopts `T` (with or
/// without `replace`), into a full one without `replace` it stitches and
/// the old entries outside the mask survive, and a complemented mask into
/// an empty output is still filtered.
fn check_masked_products<B: Backend>(
    ctx: &Context<B>,
    (a, b, u): (&Matrix<i64>, &Matrix<i64>, &[Option<i64>]),
    (mask, vmask): (&Matrix<bool>, &Vector<bool>),
    (complement, replace, fresh): (bool, bool, bool),
) {
    let desc = &descriptor(complement, replace);
    let full = |i: usize, j: usize| Some(100 + (i * N + j) as i64);
    let old_grid: Grid = (0..N)
        .map(|i| (0..N).map(|j| full(i, j).filter(|_| !fresh)).collect())
        .collect();
    let ga = to_grid(a);
    let sum = |terms: &mut dyn Iterator<Item = Option<i64>>| terms.flatten().reduce(|x, y| x + y);
    let how = format!(
        "on {}: comp={complement} replace={replace} fresh={fresh}",
        ctx.backend_name()
    );

    let mut c = Matrix::build(
        N,
        N,
        (0..N)
            .flat_map(|i| (0..N).map(move |j| (i, j)))
            .filter_map(|(i, j)| Some((i, j, old_grid[i][j]?))),
        Second::new(),
    )
    .unwrap();
    ctx.mxm(
        &mut c,
        Some(mask),
        None::<Plus<i64>>,
        PlusTimes::new(),
        a,
        b,
        desc,
    )
    .unwrap();
    let mg = to_mask_grid(Some(mask), complement);
    let t = dense_mxm(&ga, &to_grid(b));
    assert_eq!(
        to_grid(&c),
        dense_stitch(&old_grid, &t, &mg, false, replace),
        "mxm {how}"
    );

    let keep: Vec<bool> = (0..N).map(|i| vmask.contains(i) != complement).collect();
    let uv = vector(u, false);
    let pull: Vec<_> = (0..N)
        .map(|i| sum(&mut (0..N).map(|j| Some(ga[i][j]? * u[j]?))))
        .collect();
    let push: Vec<_> = (0..N)
        .map(|j| sum(&mut (0..N).map(|i| Some(u[i]? * ga[i][j]?))))
        .collect();
    for (op, t) in [("mxv", pull), ("vxm", push)] {
        let mut w = vector(&old_grid[0], false);
        let sr = PlusTimes::<i64>::new();
        match op {
            "mxv" => ctx.mxv(&mut w, Some(vmask), None::<Plus<i64>>, sr, a, &uv, desc),
            _ => ctx.vxm(&mut w, Some(vmask), None::<Plus<i64>>, sr, &uv, a, desc),
        }
        .unwrap();
        let expect = dense_stitch(
            &row_grid(&old_grid[0]),
            &row_grid(&t),
            &row_grid(&keep),
            false,
            replace,
        );
        assert_eq!(
            (0..N).map(|i| w.get(i)).collect::<Vec<_>>(),
            expect[0],
            "{op} {how}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`check_masked_products`] on all three backends.
    #[test]
    fn masked_products_adopt_into_empty_outputs_and_stitch_into_full_ones(
        a in arb_matrix(),
        b in arb_matrix(),
        u in proptest::collection::vec(proptest::option::of(-9i64..9), N),
        midx in proptest::collection::vec((0..N, 0..N), 0..40),
        replace: bool,
    ) {
        let mask = Matrix::build(N, N, midx.iter().map(|&(i, j)| (i, j, true)), Second::new())
            .expect("in bounds");
        let vmask = Vector::build(N, midx.iter().map(|&(i, _)| (i, true)), Second::new())
            .expect("in bounds");
        let operands = (&a, &b, &u[..]);
        // (complement, fresh): adopted, stitched, filtered
        for (complement, fresh) in [(false, true), (false, false), (true, true)] {
            let flags = (complement, replace, fresh);
            check_masked_products(&Context::sequential(), operands, (&mask, &vmask), flags);
            check_masked_products(&Context::parallel_with_threads(4), operands, (&mask, &vmask), flags);
            check_masked_products(&Context::cuda_default(), operands, (&mask, &vmask), flags);
        }
    }

    /// The remaining matrix operations — `ewise_mult_mat`, `apply_mat`,
    /// `select_mat`, `kronecker`, `transpose` — under the same factorial, on
    /// all three backends.
    #[test]
    fn every_matrix_op_matches_oracle(
        a in arb_matrix(),
        b in arb_matrix(),
        old in arb_matrix(),
        mask in arb_mask(),
        complement: bool,
        accum: bool,
        replace: bool,
    ) {
        let (ab, mask, flags) = ((&a, &b), mask.as_ref(), (complement, accum, replace));
        check_matrix_ops(&Context::sequential(), ab, &old, mask, flags);
        check_matrix_ops(&Context::parallel_with_threads(4), ab, &old, mask, flags);
        check_matrix_ops(&Context::cuda_default(), ab, &old, mask, flags);
    }

    /// The remaining vector operations — `vxm`, `ewise_{add,mult}_vec`,
    /// `apply_vec`, `reduce_rows`, `select_vec` — likewise, with the old
    /// output and the mask each stored as an index list or as a bitmap.
    #[test]
    fn every_vector_op_matches_oracle(
        a in arb_matrix(),
        u in proptest::collection::vec(proptest::option::of(-9i64..9), N),
        v in proptest::collection::vec(proptest::option::of(-9i64..9), N),
        old in proptest::collection::vec(proptest::option::of(-9i64..9), N),
        midx in proptest::option::of(proptest::collection::vec(0..N, 0..N)),
        complement: bool,
        accum: bool,
        replace: bool,
        bitmap_out: bool,
        bitmap_mask: bool,
    ) {
        let old = vector(&old, bitmap_out);
        let mask = midx.map(|idx| {
            let mut m = Vector::build(N, idx.into_iter().map(|i| (i, true)), Second::new())
                .expect("in bounds");
            if bitmap_mask {
                m.densify();
            }
            m
        });
        let (uv, mask, flags) = ((&u[..], &v[..]), mask.as_ref(), (complement, accum, replace));
        check_vector_ops(&Context::sequential(), &a, uv, &old, mask, flags);
        check_vector_ops(&Context::parallel_with_threads(4), &a, uv, &old, mask, flags);
        check_vector_ops(&Context::cuda_default(), &a, uv, &old, mask, flags);
    }

    /// Full factorial over {mask, complement, accum, replace} for mxm on
    /// all three backends, versus the dense oracle.
    #[test]
    fn mxm_semantics_match_oracle(
        a in arb_matrix(),
        b in arb_matrix(),
        old in arb_matrix(),
        mask in arb_mask(),
        complement: bool,
        accum: bool,
        replace: bool,
    ) {
        // oracle
        let t = dense_mxm(&to_grid(&a), &to_grid(&b));
        let mg = to_mask_grid(mask.as_ref(), complement);
        let expect = dense_stitch(&to_grid(&old), &t, &mg, accum, replace);

        // real operation on both backends
        let mut desc = Descriptor::new();
        if complement {
            desc = desc.complement_mask();
        }
        if replace {
            desc = desc.replace();
        }
        for run in 0..3 {
            let mut c = old.clone();
            let acc = if accum { Some(Plus::<i64>::new()) } else { None };
            match run {
                0 => Context::sequential()
                    .mxm(&mut c, mask.as_ref(), acc, PlusTimes::new(), &a, &b, &desc)
                    .unwrap(),
                1 => Context::cuda_default()
                    .mxm(&mut c, mask.as_ref(), acc, PlusTimes::new(), &a, &b, &desc)
                    .unwrap(),
                _ => Context::parallel_with_threads(4)
                    .mxm(&mut c, mask.as_ref(), acc, PlusTimes::new(), &a, &b, &desc)
                    .unwrap(),
            }
            let got = to_grid(&c);
            for i in 0..N {
                for j in 0..N {
                    prop_assert_eq!(
                        got[i][j], expect[i][j],
                        "backend {} at ({}, {}): mask={} comp={} accum={} replace={}",
                        run, i, j, mask.is_some(), complement, accum, replace
                    );
                }
            }
        }
    }

    /// The same factorial for eWiseAdd (union op semantics inside).
    #[test]
    fn ewise_add_semantics_match_oracle(
        a in arb_matrix(),
        b in arb_matrix(),
        old in arb_matrix(),
        mask in arb_mask(),
        complement: bool,
        accum: bool,
        replace: bool,
    ) {
        // oracle union merge
        let (ga, gb) = (to_grid(&a), to_grid(&b));
        let mut t: Grid = vec![vec![None; N]; N];
        #[allow(clippy::needless_range_loop)]
        for i in 0..N {
            for j in 0..N {
                t[i][j] = match (ga[i][j], gb[i][j]) {
                    (Some(x), Some(y)) => Some(x + y),
                    (Some(x), None) => Some(x),
                    (None, y) => y,
                };
            }
        }
        let mg = to_mask_grid(mask.as_ref(), complement);
        let expect = dense_stitch(&to_grid(&old), &t, &mg, accum, replace);

        let mut desc = Descriptor::new();
        if complement {
            desc = desc.complement_mask();
        }
        if replace {
            desc = desc.replace();
        }
        let mut c = old.clone();
        let acc = if accum { Some(Plus::<i64>::new()) } else { None };
        Context::sequential()
            .ewise_add_mat(&mut c, mask.as_ref(), acc, Plus::new(), &a, &b, &desc)
            .unwrap();
        prop_assert_eq!(to_grid(&c), expect.clone());

        let mut cp = old.clone();
        Context::parallel_with_threads(4)
            .ewise_add_mat(&mut cp, mask.as_ref(), acc, Plus::new(), &a, &b, &desc)
            .unwrap();
        prop_assert_eq!(to_grid(&cp), expect);
    }

    /// mxv against a dense oracle with vector masks.
    #[test]
    fn mxv_semantics_match_oracle(
        a in arb_matrix(),
        uvals in proptest::collection::vec(proptest::option::of(-9i64..9), N),
        old in proptest::collection::vec(proptest::option::of(-9i64..9), N),
        midx in proptest::option::of(proptest::collection::vec(0..N, 0..N)),
        complement: bool,
        accum: bool,
        replace: bool,
    ) {
        let sr = PlusTimes::<i64>::new();
        let ga = to_grid(&a);
        // oracle product
        let mut t = [None; N];
        #[allow(clippy::needless_range_loop)]
        for i in 0..N {
            let mut acc_v: Option<i64> = None;
            for j in 0..N {
                if let (Some(x), Some(y)) = (ga[i][j], uvals[j]) {
                    let term = sr.mul().apply(x, y);
                    acc_v = Some(match acc_v {
                        Some(v) => sr.add().apply(v, term),
                        None => term,
                    });
                }
            }
            t[i] = acc_v;
        }
        // mask bits
        let keep: Vec<bool> = match &midx {
            None => vec![true; N],
            Some(idx) => {
                let mut k = vec![complement; N];
                for &i in idx {
                    k[i] = !complement;
                }
                k
            }
        };
        // oracle stitch
        let mut expect = [None; N];
        #[allow(clippy::needless_range_loop)]
        for i in 0..N {
            let z = if accum {
                match (old[i], t[i]) {
                    (Some(a), Some(b)) => Some(a + b),
                    (Some(a), None) => Some(a),
                    (None, b) => b,
                }
            } else {
                t[i]
            };
            expect[i] = if keep[i] {
                z
            } else if replace {
                None
            } else {
                old[i]
            };
        }

        // real op
        let mut u = Vector::new(N);
        for (i, v) in uvals.iter().enumerate() {
            if let Some(v) = v {
                u.set(i, *v);
            }
        }
        let mut w = Vector::new_dense(N);
        for (i, v) in old.iter().enumerate() {
            if let Some(v) = v {
                w.set(i, *v);
            }
        }
        let mask = midx.map(|idx| {
            let mut m = Vector::new(N);
            for i in idx {
                m.set(i, true);
            }
            m
        });
        let mut desc = Descriptor::new();
        if complement {
            desc = desc.complement_mask();
        }
        if replace {
            desc = desc.replace();
        }
        let acc = if accum { Some(Plus::<i64>::new()) } else { None };
        let mut wp = w.clone();
        Context::sequential()
            .mxv(&mut w, mask.as_ref(), acc, sr, &a, &u, &desc)
            .unwrap();
        Context::parallel_with_threads(4)
            .mxv(&mut wp, mask.as_ref(), acc, sr, &a, &u, &desc)
            .unwrap();
        for (i, &want) in expect.iter().enumerate() {
            prop_assert_eq!(w.get(i), want, "position {}", i);
            prop_assert_eq!(wp.get(i), want, "position {} (parallel)", i);
        }
    }
}

#[allow(dead_code)]
fn monoid_in_scope<M: Monoid<i64>>(_: M) {}
