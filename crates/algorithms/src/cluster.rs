//! Peer-pressure clustering (Kepner & Gilbert ch. 6; shipped with GBTL).

use gbtl_algebra::{PlusSecond, Second};
use gbtl_core::{no_accum, Backend, Context, Descriptor, Matrix, Result, Vector};

use crate::util::check_square;

/// Peer-pressure clustering: every vertex repeatedly adopts the most
/// common cluster label among its neighbours (ties to the smallest label).
///
/// Per round: with `P` the vertex→label indicator matrix, `T = A · P` on
/// `(+, second)` — `A` the boolean adjacency itself — tallies neighbour
/// votes per label; the per-row arg-max is the new assignment. Converges
/// (or cycles) quickly; capped at `max_iters`.
/// Returns the final label vector.
pub fn peer_pressure<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    max_iters: usize,
) -> Result<Vector<u64>> {
    check_square("peer_pressure", a)?;
    let n = a.nrows();

    let mut labels: Vec<usize> = (0..n).collect();
    for _ in 0..max_iters {
        // indicator matrix P: (v, labels[v]) = 1
        let p = Matrix::build(
            n,
            n,
            labels.iter().enumerate().map(|(v, &l)| (v, l, 1u64)),
            Second::new(),
        )?;
        let mut tally = Matrix::new(n, n);
        ctx.mxm(
            &mut tally,
            None,
            no_accum(),
            PlusSecond::<u64>::new(),
            a,
            &p,
            &Descriptor::new(),
        )?;
        // per-row arg-max (ties to smallest label); vertices with no
        // neighbours keep their label
        let mut next = labels.clone();
        let (rows, cols, vals) = tally.extract_tuples();
        let mut best: Vec<(u64, usize)> = vec![(0, usize::MAX); n];
        for ((i, j), v) in rows.into_iter().zip(cols).zip(vals) {
            let (bv, bj) = best[i];
            if v > bv || (v == bv && j < bj) {
                best[i] = (v, j);
            }
        }
        for (v, &(count, label)) in best.iter().enumerate() {
            if count > 0 {
                next[v] = label;
            }
        }
        if next == labels {
            break;
        }
        labels = next;
    }

    let mut out = Vector::new_dense(n);
    for (v, &l) in labels.iter().enumerate() {
        out.set(v, l as u64);
    }
    Ok(out)
}

/// Number of distinct clusters in a label vector.
pub fn cluster_count(labels: &Vector<u64>) -> usize {
    let mut set = std::collections::HashSet::new();
    for (_, l) in labels.iter() {
        set.insert(l);
    }
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn undirected(edges: &[(usize, usize)], n: usize) -> Matrix<bool> {
        let mut triples = Vec::new();
        for &(a, b) in edges {
            triples.push((a, b, true));
            triples.push((b, a, true));
        }
        Matrix::build(n, n, triples, Second::new()).unwrap()
    }

    #[test]
    fn two_cliques_with_a_bridge() {
        // cliques {0,1,2} and {3,4,5}, bridge 2-3
        let a = undirected(&[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)], 6);
        let labels = peer_pressure(&Context::sequential(), &a, 50).unwrap();
        // each clique should be internally consistent
        assert_eq!(labels.get(0), labels.get(1));
        assert_eq!(labels.get(1), labels.get(2));
        assert_eq!(labels.get(3), labels.get(4));
        assert_eq!(labels.get(4), labels.get(5));
        assert!(cluster_count(&labels) <= 2);
    }

    #[test]
    fn isolated_vertices_keep_their_labels() {
        let a = Matrix::<bool>::new(3, 3);
        let labels = peer_pressure(&Context::sequential(), &a, 10).unwrap();
        assert_eq!(labels.get(0), Some(0));
        assert_eq!(labels.get(2), Some(2));
    }

    #[test]
    fn backends_agree() {
        let a = undirected(&[(0, 1), (1, 2), (0, 2), (3, 4)], 5);
        let seq = peer_pressure(&Context::sequential(), &a, 20).unwrap();
        let cuda = peer_pressure(&Context::cuda_default(), &a, 20).unwrap();
        assert_eq!(seq, cuda);
    }
}
