//! Greedy graph coloring via repeated maximal independent sets
//! (Jones–Plassmann / Luby style).

use gbtl_core::{Backend, Context, GblasError, Matrix, Result, Vector};

use crate::mis::maximal_independent_set;
use crate::util::check_square;

/// Color an *undirected* graph: every vertex gets a color such that no
/// edge connects two vertices of the same color.
///
/// Rounds of Luby MIS on the shrinking uncolored subgraph: each round's
/// independent set takes the next color and leaves the graph. The number
/// of colors is at most Δ+1-ish in practice (not guaranteed minimal).
/// Deterministic per seed. Returns the color (0-based) per vertex; a
/// non-square `a` is a `DimensionMismatch` error.
pub fn greedy_color<B: Backend>(
    ctx: &Context<B>,
    a: &Matrix<bool>,
    seed: u64,
) -> Result<Vector<u64>> {
    check_square("greedy_color", a)?;
    let n = a.nrows();
    let mut colors: Vector<u64> = Vector::new_dense(n);
    let mut remaining = a.clone();
    let mut alive: Vec<bool> = vec![true; n];
    let mut color = 0u64;

    while alive.iter().any(|&x| x) {
        let set = maximal_independent_set(ctx, &remaining, seed.wrapping_add(color))?;
        // The MIS of the remaining subgraph may include already-colored
        // (isolated in `remaining`) vertices; only color live ones.
        let mut picked = Vec::new();
        for (v, _) in set.iter() {
            if alive[v] {
                colors.set(v, color);
                alive[v] = false;
                picked.push(v);
            }
        }
        // a maximal set of the live subgraph holds a live vertex
        if picked.is_empty() {
            return Err(GblasError::InvalidValue {
                op: "greedy_color",
                detail: format!("round {color} colored no vertex"),
            });
        }
        // Remove colored vertices from the remaining graph.
        let (rows, cols, vals) = remaining.extract_tuples();
        let triples = rows
            .into_iter()
            .zip(cols)
            .zip(vals)
            .filter(|&((i, j), _)| alive[i] && alive[j])
            .map(|((i, j), v)| (i, j, v));
        remaining = Matrix::build(n, n, triples, gbtl_algebra::Second::new())?;
        color += 1;
        if color > n as u64 {
            return Err(GblasError::InvalidValue {
                op: "greedy_color",
                detail: format!("{color} colors for {n} vertices"),
            });
        }
    }
    Ok(colors)
}

/// Check a coloring: every edge bichromatic, every vertex colored.
pub fn verify_coloring(a: &Matrix<bool>, colors: &Vector<u64>) -> bool {
    for v in 0..a.nrows() {
        if colors.get(v).is_none() {
            return false;
        }
    }
    for (i, j, _) in a.iter() {
        if i != j && colors.get(i) == colors.get(j) {
            return false;
        }
    }
    true
}

/// Number of distinct colors used.
pub fn color_count(colors: &Vector<u64>) -> usize {
    let mut set = std::collections::HashSet::new();
    for (_, c) in colors.iter() {
        set.insert(c);
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
    fn path_is_two_colorable() {
        let edges: Vec<(usize, usize)> = (0..7).map(|v| (v, v + 1)).collect();
        let a = undirected(&edges, 8);
        let colors = greedy_color(&Context::sequential(), &a, 3).unwrap();
        assert!(verify_coloring(&a, &colors));
        assert!(color_count(&colors) <= 3, "path needs at most ~2 colors");
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let mut edges = Vec::new();
        for i in 0..5 {
            for j in i + 1..5 {
                edges.push((i, j));
            }
        }
        let a = undirected(&edges, 5);
        let colors = greedy_color(&Context::sequential(), &a, 1).unwrap();
        assert!(verify_coloring(&a, &colors));
        assert_eq!(color_count(&colors), 5);
    }

    #[test]
    fn empty_graph_is_one_color() {
        let a = Matrix::<bool>::new(4, 4);
        let colors = greedy_color(&Context::sequential(), &a, 1).unwrap();
        assert!(verify_coloring(&a, &colors));
        assert_eq!(color_count(&colors), 1);
    }

    #[test]
    fn star_is_two_colorable() {
        let a = undirected(&[(0, 1), (0, 2), (0, 3), (0, 4)], 5);
        let colors = greedy_color(&Context::sequential(), &a, 5).unwrap();
        assert!(verify_coloring(&a, &colors));
        assert_eq!(color_count(&colors), 2);
    }

    #[test]
    fn backends_agree() {
        let a = undirected(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4);
        let c1 = greedy_color(&Context::sequential(), &a, 9).unwrap();
        let c2 = greedy_color(&Context::cuda_default(), &a, 9).unwrap();
        assert_eq!(c1, c2);
        assert!(verify_coloring(&a, &c1));
    }
}
