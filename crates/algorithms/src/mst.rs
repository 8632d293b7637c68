//! Minimum spanning forest weight — Borůvka rounds.

use gbtl_algebra::{Bounded, MinMonoid, Scalar, Second};
use gbtl_core::{no_accum, Backend, Context, Descriptor, GblasError, Matrix, Result, Vector};

/// Total weight of the minimum spanning forest of an *undirected* weighted
/// graph (symmetric weight matrix, positive weights).
///
/// Borůvka: each round every component finds its lightest outgoing edge
/// (a masked row-reduce with the `min` monoid over the cross-component
/// subgraph), all such edges join the forest, and components merge.
/// `O(log n)` rounds. The cross-component edge filter is rebuilt per round
/// host-side (as GBTL's own MST does); the min-reductions run through the
/// backend. A non-square `a` is a `DimensionMismatch` error.
pub fn mst_weight<B, T>(ctx: &Context<B>, a: &Matrix<T>) -> Result<T>
where
    B: Backend,
    T: Scalar + PartialOrd + Bounded + crate::sssp::DefaultZero + std::ops::Add<Output = T>,
{
    crate::util::check_square("mst_weight", a)?;
    let n = a.nrows();
    let mut comp: Vec<usize> = (0..n).collect();
    fn find(comp: &mut [usize], v: usize) -> usize {
        let mut root = v;
        while comp[root] != root {
            root = comp[root];
        }
        let mut cur = v;
        while comp[cur] != root {
            let next = comp[cur];
            comp[cur] = root;
            cur = next;
        }
        root
    }

    let mut total = T::default_zero();
    loop {
        // Cross-component subgraph (host-side structural filter, identical
        // on both backends).
        let (rows, cols, vals) = a.extract_tuples();
        let cross: Vec<(usize, usize, T)> = rows
            .into_iter()
            .zip(cols)
            .zip(vals)
            .filter_map(|((i, j), v)| {
                if find(&mut comp, i) != find(&mut comp, j) {
                    Some((i, j, v))
                } else {
                    None
                }
            })
            .collect();
        if cross.is_empty() {
            break;
        }
        let cross_mat = Matrix::build(n, n, cross.iter().copied(), Second::new())?;

        // Lightest incident cross edge per vertex via the backend.
        let mut vmin: Vector<T> = Vector::new(n);
        ctx.reduce_rows(
            &mut vmin,
            None,
            no_accum(),
            MinMonoid::<T>::new(),
            &cross_mat,
            &Descriptor::new(),
        )?;

        // Arg-min endpoints in one pass over the cross edges (the backend
        // reduce gives the min weights; this recovers which edge achieved
        // them).
        let mut arg: Vec<Option<usize>> = vec![None; n];
        for &(i, j, w) in &cross {
            if vmin.get(i) == Some(w) && arg[i].is_none_or(|k| j < k) {
                arg[i] = Some(j);
            }
        }

        // Per component: the lightest of its vertices' lightest edges.
        let mut comp_best: std::collections::HashMap<usize, (T, usize, usize)> =
            std::collections::HashMap::new();
        for (i, w) in vmin.iter() {
            // a weight that equals no weight — NaN — reduces to a minimum no
            // edge achieved
            let j = arg[i].ok_or_else(|| GblasError::InvalidValue {
                op: "mst_weight",
                detail: format!("vertex {i}'s lightest edge weight compares to nothing"),
            })?;
            let ci = find(&mut comp, i);
            let entry = comp_best.entry(ci).or_insert((w, i, j));
            if w < entry.0 || (w == entry.0 && (i, j) < (entry.1, entry.2)) {
                *entry = (w, i, j);
            }
        }

        // Add the selected edges; merge components.
        for (_, (w, i, j)) in comp_best {
            let (ri, rj) = (find(&mut comp, i), find(&mut comp, j));
            if ri != rj {
                comp[ri.max(rj)] = ri.min(rj);
                total = total + w;
            }
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn undirected(edges: &[(usize, usize, u32)], n: usize) -> Matrix<u32> {
        let mut triples = Vec::new();
        for &(a, b, w) in edges {
            triples.push((a, b, w));
            triples.push((b, a, w));
        }
        Matrix::build(n, n, triples, Second::new()).unwrap()
    }

    #[test]
    fn square_with_diagonal() {
        // square 0-1-2-3 with weights 1,2,3,4 and diagonal 0-2 weight 5
        let a = undirected(&[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4), (0, 2, 5)], 4);
        // MST = 1 + 2 + 3 = 6
        assert_eq!(mst_weight(&Context::sequential(), &a).unwrap(), 6);
    }

    #[test]
    fn classic_cormen_example() {
        let a = undirected(
            &[
                (0, 1, 4),
                (0, 7, 8),
                (1, 2, 8),
                (1, 7, 11),
                (2, 3, 7),
                (2, 8, 2),
                (2, 5, 4),
                (3, 4, 9),
                (3, 5, 14),
                (4, 5, 10),
                (5, 6, 2),
                (6, 7, 1),
                (6, 8, 6),
                (7, 8, 7),
            ],
            9,
        );
        assert_eq!(mst_weight(&Context::sequential(), &a).unwrap(), 37);
    }

    #[test]
    fn forest_of_two_components() {
        let a = undirected(&[(0, 1, 5), (2, 3, 7)], 4);
        assert_eq!(mst_weight(&Context::sequential(), &a).unwrap(), 12);
    }

    #[test]
    fn backends_agree() {
        let a = undirected(&[(0, 1, 3), (1, 2, 1), (2, 0, 2), (2, 3, 9)], 4);
        let seq = mst_weight(&Context::sequential(), &a).unwrap();
        let cuda = mst_weight(&Context::cuda_default(), &a).unwrap();
        assert_eq!(seq, cuda);
        assert_eq!(seq, 12); // 1 + 2 + 9
    }

    #[test]
    fn empty_graph_weighs_nothing() {
        let a = Matrix::<u32>::new(3, 3);
        assert_eq!(mst_weight(&Context::sequential(), &a).unwrap(), 0);
    }
}
