//! Connected components by min-label propagation.

use gbtl_algebra::MinSecond;
use gbtl_core::{no_accum, Backend, Context, Descriptor, Matrix, Result, Vector};
use gbtl_sparse::DenseVector;

use crate::util::check_square;

/// Label the connected components of an *undirected* graph: every vertex
/// receives the smallest vertex id reachable from it.
///
/// Iterative min-label propagation: each round every vertex pulls the
/// minimum label of its neighbourhood with one `mxv` on `(min, second)`
/// over the boolean adjacency itself (the edge values are never read) and
/// keeps the smaller of that and its own. Converges in at most the graph
/// diameter rounds.
pub fn connected_components<B: Backend>(ctx: &Context<B>, a: &Matrix<bool>) -> Result<Vector<u64>> {
    check_square("connected_components", a)?;
    let n = a.nrows();
    let mut labels: Vec<u64> = (0..n as u64).collect();
    let dense = |l: &[u64]| Vector::from(DenseVector::from_values(l.to_vec()));
    let (sr, desc) = (MinSecond::<u64>::new(), Descriptor::new());
    loop {
        // neighbourhood minimum: w_i = min over j in N(i) of labels_j
        let (mut nbr_min, current) = (Vector::new(n), dense(&labels));
        ctx.mxv(&mut nbr_min, None, no_accum(), sr, a, &current, &desc)?;
        let mut changed = false;
        for (i, m) in nbr_min.dense_view().iter() {
            if m < labels[i] {
                labels[i] = m;
                changed = true;
            }
        }
        if !changed {
            return Ok(dense(&labels));
        }
    }
}

/// Number of distinct components in a label vector.
pub fn component_count(labels: &Vector<u64>) -> usize {
    let mut set = std::collections::HashSet::new();
    for (_, l) in labels.iter() {
        set.insert(l);
    }
    set.len()
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
    fn two_components() {
        let a = undirected(&[(0, 1), (1, 2), (3, 4)], 6);
        let labels = connected_components(&Context::sequential(), &a).unwrap();
        assert_eq!(labels.get(0), Some(0));
        assert_eq!(labels.get(1), Some(0));
        assert_eq!(labels.get(2), Some(0));
        assert_eq!(labels.get(3), Some(3));
        assert_eq!(labels.get(4), Some(3));
        assert_eq!(labels.get(5), Some(5)); // isolated vertex
        assert_eq!(component_count(&labels), 3);
    }

    #[test]
    fn long_path_converges() {
        let n = 50;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let a = undirected(&edges, n);
        let labels = connected_components(&Context::sequential(), &a).unwrap();
        assert!((0..n).all(|v| labels.get(v) == Some(0)));
    }

    #[test]
    fn backends_agree() {
        let a = undirected(&[(0, 3), (3, 5), (1, 2), (2, 4)], 7);
        let seq = connected_components(&Context::sequential(), &a).unwrap();
        let cuda = connected_components(&Context::cuda_default(), &a).unwrap();
        assert_eq!(seq, cuda);
        assert_eq!(component_count(&seq), 3);
    }

    #[test]
    fn non_square_is_an_error() {
        let a = Matrix::<bool>::new(2, 3);
        assert!(connected_components(&Context::sequential(), &a).is_err());
        let mis = crate::maximal_independent_set(&Context::sequential(), &a, 1);
        assert!(mis.is_err());
    }

    #[test]
    fn empty_graph_all_singletons() {
        let a = Matrix::<bool>::new(4, 4);
        let labels = connected_components(&Context::sequential(), &a).unwrap();
        assert_eq!(component_count(&labels), 4);
    }
}
