//! Maximal independent set — Luby's randomized algorithm.

use gbtl_algebra::{MinFirst, MinSecond, Second};
use gbtl_core::{no_accum, Backend, Context, Descriptor, GblasError, Matrix, Result, Vector};
use gbtl_sparse::DenseVector;
use rand_shim::SplitMix64;

use crate::util::check_square;

/// Luby's MIS on an *undirected* graph.
///
/// Each round every candidate vertex draws a random priority; candidates
/// whose priority beats every candidate neighbour's (one `mxv` on
/// `(min, second)`, masked to the candidates' rows) join the set, and they
/// and their neighbours (one `vxm` on `(min, first)`, which a device with
/// `Aᵀ` resident may be charged as a pull, docs/adr/0016) leave the
/// candidate pool. Both products read the boolean adjacency as it stands.
/// Expected `O(log n)` rounds. Deterministic per seed.
///
/// The smallest priority always wins its round, so every round retires a
/// candidate — unless priorities tie, which takes `n > 2²⁰` (the id no
/// longer fits under the random bits); that is an `InvalidValue` error.
pub fn maximal_independent_set<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    seed: u64,
) -> Result<Vector<bool>> {
    check_square("maximal_independent_set", a)?;
    let n = a.nrows();
    let (pull, push) = (MinSecond::<u64>::new(), MinFirst::<u64>::new());
    let (desc, only_cands) = (Descriptor::new(), Descriptor::new().replace());

    let mut in_set = DenseVector::new(n);
    let mut candidate = DenseVector::filled(n, true);
    let mut rng = SplitMix64::new(seed);
    let mut first_round = true;

    while candidate.nnz() > 0 {
        // Draw priorities for candidates (ties broken by vertex id by
        // packing the id into the low bits).
        let draw = |i| {
            candidate
                .contains(i)
                .then(|| ((rng.next() >> 32) << 20) | i as u64)
        };
        let prio = Vector::from(DenseVector::from_fn(n, draw));
        // Minimum candidate-neighbour priority per candidate: only a
        // candidate's row can produce a winner, so the pull reads no other
        // — once there are others: the first round's mask keeps every row.
        let cands = (!first_round).then(|| Vector::from(candidate.clone()));
        first_round = false;
        let mut nbr_min: Vector<u64> = Vector::new(n);
        ctx.mxv(
            &mut nbr_min,
            cands.as_ref(),
            no_accum(),
            pull,
            a,
            &prio,
            &only_cands,
        )?;
        // Winners: candidates whose priority beats all candidate
        // neighbours' (or that have none).
        let least = nbr_min.dense_view();
        let winners: Vec<usize> = (prio.dense_view().iter())
            .filter(|&(i, p)| least.get(i).is_none_or(|m| p < m))
            .map(|(i, _)| i)
            .collect();
        if winners.is_empty() {
            return Err(GblasError::InvalidValue {
                op: "maximal_independent_set",
                detail: "a round retired no candidate (tied priorities)".into(),
            });
        }
        for &w in &winners {
            in_set.set(w, true);
            candidate.unset(w);
        }
        // Knock out winners' neighbours: the host pushes, and with `Aᵀ`
        // resident a device is charged the cheaper of that push and one
        // pull over `Aᵀ` (docs/adr/0016).
        let win_vec = Vector::build(n, winners.iter().map(|&w| (w, 1u64)), Second::new())?;
        let run = || {
            let mut knocked: Vector<u64> = Vector::new(n);
            ctx.vxm(&mut knocked, None, no_accum(), push, &win_vec, a, &desc)?;
            Ok(knocked)
        };
        let (knocked, _) = ctx.priced_level(pull, a, &win_vec, None, run)?;
        for (i, _) in knocked.iter() {
            candidate.unset(i);
        }
    }
    Ok(in_set.into())
}

/// Verify the MIS invariants: no two set members adjacent (independence)
/// and every non-member has a member neighbour (maximality). One walk over
/// each vertex's own row: O(nnz) in all, each membership one presence bit
/// of the set's bitmap form (a stored `false` is a member too).
pub fn verify_mis(a: &Matrix<bool>, set: &Vector<bool>) -> bool {
    let csr = a.csr();
    let bitmap = set.dense_view();
    let member = |j: usize| j < bitmap.len() && bitmap.contains(j);
    (0..a.nrows()).all(|v| {
        let mut member_neighbours = csr.row(v).0.iter().filter(|&&j| j != v && member(j));
        if member(v) {
            member_neighbours.next().is_none() // independent
        } else {
            member_neighbours.next().is_some() // maximal
        }
    })
}

mod rand_shim {
    /// SplitMix64: tiny deterministic RNG (no external dependency needed
    /// inside the algorithm crate).
    pub struct SplitMix64(u64);

    impl SplitMix64 {
        pub fn new(seed: u64) -> Self {
            Self(seed.wrapping_add(0x9E3779B97F4A7C15))
        }

        pub fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::Second;

    fn undirected(edges: &[(usize, usize)], n: usize) -> Matrix<bool> {
        let mut triples = Vec::new();
        for &(a, b) in edges {
            triples.push((a, b, true));
            triples.push((b, a, true));
        }
        Matrix::build(n, n, triples, Second::new()).unwrap()
    }

    #[test]
    fn mis_on_path_is_valid() {
        let edges: Vec<(usize, usize)> = (0..9).map(|v| (v, v + 1)).collect();
        let a = undirected(&edges, 10);
        let set = maximal_independent_set(&Context::sequential(), &a, 42).unwrap();
        assert!(verify_mis(&a, &set));
        assert!(set.nnz() >= 3, "path of 10 admits an IS of >= 3");
    }

    #[test]
    fn mis_on_complete_graph_is_single_vertex() {
        let mut edges = Vec::new();
        for i in 0..6 {
            for j in i + 1..6 {
                edges.push((i, j));
            }
        }
        let a = undirected(&edges, 6);
        let set = maximal_independent_set(&Context::sequential(), &a, 7).unwrap();
        assert_eq!(set.nnz(), 1);
        assert!(verify_mis(&a, &set));
    }

    #[test]
    fn verify_rejects_dependent_and_non_maximal_sets() {
        // path 0-1-2-3-4 with a self-loop on 2 (a loop is no neighbour)
        let mut triples = vec![(2usize, 2usize, true)];
        for v in 0..4usize {
            triples.push((v, v + 1, true));
            triples.push((v + 1, v, true));
        }
        let a = Matrix::build(5, 5, triples, Second::new()).unwrap();
        let set_of = |members: &[usize]| {
            let mut s: Vector<bool> = Vector::new(5);
            for &v in members {
                s.set(v, true);
            }
            s
        };
        assert!(verify_mis(&a, &set_of(&[0, 2, 4])));
        assert!(verify_mis(&a, &set_of(&[1, 3])));
        assert!(!verify_mis(&a, &set_of(&[0, 1, 3])), "0 and 1 are adjacent");
        assert!(verify_mis(&a, &set_of(&[0, 3])));
        assert!(
            !verify_mis(&a, &set_of(&[0, 4])),
            "vertex 2 has no member neighbour"
        );
        assert!(
            !verify_mis(&a, &set_of(&[])),
            "the empty set is not maximal"
        );
        // membership is presence: a stored `false` is a member, in either
        // representation
        let mut stored_false = set_of(&[0, 2, 4]);
        stored_false.set(2, false);
        assert!(verify_mis(&a, &stored_false));
        stored_false.set(3, false);
        assert!(!verify_mis(&a, &stored_false), "2 and 3 are adjacent");
        stored_false.densify();
        assert!(!verify_mis(&a, &stored_false));
        let mut dense = set_of(&[1, 3]);
        dense.densify();
        assert!(verify_mis(&a, &dense));
    }

    #[test]
    fn mis_on_empty_graph_is_everything() {
        let a = Matrix::<bool>::new(5, 5);
        let set = maximal_independent_set(&Context::sequential(), &a, 1).unwrap();
        assert_eq!(set.nnz(), 5);
    }

    #[test]
    fn deterministic_per_seed_and_backend_agnostic() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)];
        let a = undirected(&edges, 4);
        let s1 = maximal_independent_set(&Context::sequential(), &a, 9).unwrap();
        let s2 = maximal_independent_set(&Context::sequential(), &a, 9).unwrap();
        assert_eq!(s1, s2);
        let s3 = maximal_independent_set(&Context::cuda_default(), &a, 9).unwrap();
        assert_eq!(s1, s3);
        assert!(verify_mis(&a, &s1));
    }
}
