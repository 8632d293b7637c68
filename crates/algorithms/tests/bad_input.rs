//! A bad argument is an `Err` on every backend — never a panic, which in a
//! server would cost a pool worker, not one request.

use gbtl_algorithms::{
    bfs_levels_multi, greedy_color, k_truss, mst_weight, sssp_multi, widest_path,
};
use gbtl_core::{Backend, Context, GblasError, Matrix};

/// Every entry point that used to assert its way out, on one context:
/// `(name, result of a non-square call)`.
fn non_square_calls<B: Backend>(ctx: &Context<B>) -> Vec<(&'static str, Option<GblasError>)> {
    let (adj, w) = (Matrix::<bool>::new(2, 3), Matrix::<u32>::new(2, 3));
    vec![
        ("bfs_levels_multi", bfs_levels_multi(ctx, &adj, &[0]).err()),
        ("sssp_multi", sssp_multi(ctx, &w, &[0]).err()),
        ("greedy_color", greedy_color(ctx, &adj, 7).err()),
        ("k_truss", k_truss(ctx, &adj, 3).err()),
        ("mst_weight", mst_weight(ctx, &w).err()),
        ("widest_path", widest_path(ctx, &w, 0).err()),
    ]
}

#[test]
fn non_square_or_small_k_is_an_error_on_every_backend() {
    let per_backend = [
        non_square_calls(&Context::sequential()),
        non_square_calls(&Context::parallel_with_threads(2)),
        non_square_calls(&Context::cuda_default()),
    ];
    for calls in per_backend {
        for (name, err) in calls {
            assert!(
                matches!(err, Some(GblasError::DimensionMismatch { op, .. }) if op == name),
                "{name}: {err:?}"
            );
        }
    }
    let square = Matrix::<bool>::new(3, 3);
    for k in 0..3 {
        let seq = k_truss(&Context::sequential(), &square, k);
        let par = k_truss(&Context::parallel_with_threads(2), &square, k);
        let cuda = k_truss(&Context::cuda_default(), &square, k);
        for got in [seq, par, cuda] {
            assert!(
                matches!(got, Err(GblasError::InvalidValue { op: "k_truss", .. })),
                "k = {k}: {got:?}"
            );
        }
    }
}
