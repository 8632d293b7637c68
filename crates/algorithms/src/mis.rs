//! Maximal independent set — Luby's randomized algorithm.

use gbtl_algebra::MinSecond;
use gbtl_core::{no_accum, Backend, Context, Descriptor, Matrix, Result, Vector};
use rand_shim::SplitMix64;

use crate::util::pattern_matrix;

/// Luby's MIS on an *undirected* graph.
///
/// Each round every candidate vertex draws a random priority; vertices
/// whose priority beats every candidate neighbour's (one `mxv` on
/// `(min, second)` over the candidate-masked graph) join the set, and they
/// and their neighbours leave the candidate pool. Expected `O(log n)`
/// rounds. Deterministic per seed.
pub fn maximal_independent_set<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    seed: u64,
) -> Result<Vector<bool>> {
    assert_eq!(a.nrows(), a.ncols(), "adjacency must be square");
    let n = a.nrows();
    let a_ids = pattern_matrix(ctx, a, 1u64);
    let desc = Descriptor::new();

    let mut in_set: Vector<bool> = Vector::new_dense(n);
    let mut candidate = vec![true; n];
    let mut rng = SplitMix64::new(seed);
    let mut round = 0u64;

    while candidate.iter().any(|&c| c) {
        round += 1;
        // Draw priorities for candidates (ties broken by vertex id by
        // packing the id into the low bits).
        let mut prio: Vector<u64> = Vector::new_dense(n);
        for (i, &is_cand) in candidate.iter().enumerate() {
            if is_cand {
                let r = rng.next() >> 32;
                prio.set(i, (r << 20) | i as u64);
            }
        }
        // Minimum candidate-neighbour priority per vertex.
        let mut nbr_min: Vector<u64> = Vector::new_dense(n);
        ctx.mxv(
            &mut nbr_min,
            None,
            no_accum(),
            MinSecond::<u64>::new(),
            &a_ids,
            &prio,
            &desc,
        )?;
        // Winners: candidates whose priority beats all candidate neighbours.
        let mut winners = Vec::new();
        for (i, &is_cand) in candidate.iter().enumerate() {
            if !is_cand {
                continue;
            }
            let mine = prio.get(i).expect("candidates have priorities");
            let wins = match nbr_min.get(i) {
                Some(m) => mine < m,
                None => true, // no candidate neighbours
            };
            if wins {
                winners.push(i);
            }
        }
        for &w in &winners {
            in_set.set(w, true);
            candidate[w] = false;
        }
        // Knock out winners' neighbours.
        let mut win_vec: Vector<u64> = Vector::new(n);
        for &w in &winners {
            win_vec.set(w, 1u64);
        }
        let mut knocked: Vector<u64> = Vector::new(n);
        ctx.vxm(
            &mut knocked,
            None,
            no_accum(),
            MinSecond::<u64>::new(),
            &win_vec,
            &a_ids,
            &desc,
        )?;
        for (i, _) in knocked.iter() {
            candidate[i] = false;
        }
        assert!(round <= n as u64 + 1, "MIS failed to converge");
    }
    Ok(in_set)
}

/// Verify the MIS invariants: no two set members adjacent (independence)
/// and every non-member has a member neighbour (maximality). One walk over
/// each vertex's own row: O(nnz) in all.
pub fn verify_mis(a: &Matrix<bool>, set: &Vector<bool>) -> bool {
    let csr = a.csr();
    (0..a.nrows()).all(|v| {
        let mut member_neighbours = csr.row(v).0.iter().filter(|&&j| j != v && set.contains(j));
        if set.contains(v) {
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
