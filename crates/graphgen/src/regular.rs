//! Regular topologies: meshes, rings, stars — the high-diameter regime
//! where level-synchronous BFS/SSSP iterate many times.

use gbtl_sparse::CooMatrix;

/// 2-D `w × h` grid with 4-neighbour connectivity, undirected (both edge
/// directions stored). Vertex `(x, y)` has index `y * w + x`.
pub fn grid_2d(w: usize, h: usize) -> CooMatrix<bool> {
    let n = w * h;
    let mut coo = CooMatrix::with_capacity(n, n, 4 * n);
    for y in 0..h {
        for x in 0..w {
            let v = y * w + x;
            if x + 1 < w {
                coo.push(v, v + 1, true);
                coo.push(v + 1, v, true);
            }
            if y + 1 < h {
                coo.push(v, v + w, true);
                coo.push(v + w, v, true);
            }
        }
    }
    coo
}

/// 2-D `w × h` torus (grid with wraparound), undirected.
pub fn torus_2d(w: usize, h: usize) -> CooMatrix<bool> {
    assert!(w >= 2 && h >= 2, "torus needs at least 2x2");
    let n = w * h;
    let mut coo = CooMatrix::with_capacity(n, n, 4 * n);
    for y in 0..h {
        for x in 0..w {
            let v = y * w + x;
            let right = y * w + (x + 1) % w;
            let down = ((y + 1) % h) * w + x;
            coo.push(v, right, true);
            coo.push(right, v, true);
            coo.push(v, down, true);
            coo.push(down, v, true);
        }
    }
    coo
}

/// Undirected ring of `n` vertices.
pub fn ring(n: usize) -> CooMatrix<bool> {
    assert!(n >= 3, "ring needs at least 3 vertices");
    let mut coo = CooMatrix::with_capacity(n, n, 2 * n);
    for v in 0..n {
        let next = (v + 1) % n;
        coo.push(v, next, true);
        coo.push(next, v, true);
    }
    coo
}

/// Undirected path of `n` vertices (the worst case for frontier
/// parallelism: every frontier has one vertex).
pub fn path(n: usize) -> CooMatrix<bool> {
    assert!(n >= 2, "path needs at least 2 vertices");
    let mut coo = CooMatrix::with_capacity(n, n, 2 * (n - 1));
    for v in 0..n - 1 {
        coo.push(v, v + 1, true);
        coo.push(v + 1, v, true);
    }
    coo
}

/// Undirected star: vertex 0 connected to all others.
pub fn star(n: usize) -> CooMatrix<bool> {
    assert!(n >= 2, "star needs at least 2 vertices");
    let mut coo = CooMatrix::with_capacity(n, n, 2 * (n - 1));
    for v in 1..n {
        coo.push(0, v, true);
        coo.push(v, 0, true);
    }
    coo
}

/// Complete graph on `n` vertices (no self-loops).
pub fn complete(n: usize) -> CooMatrix<bool> {
    let mut coo = CooMatrix::with_capacity(n, n, n * (n - 1));
    for i in 0..n {
        for j in 0..n {
            if i != j {
                coo.push(i, j, true);
            }
        }
    }
    coo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::simple;

    #[test]
    fn grid_edge_counts() {
        // 3x2 grid: horizontal edges 2*2=4, vertical 3*1=3, doubled = 14
        let csr = simple(&grid_2d(3, 2));
        assert_eq!(csr.nnz(), 14);
        assert_eq!(csr.get(0, 1), Some(true));
        assert_eq!(csr.get(0, 3), Some(true));
        assert_eq!(csr.get(0, 4), None);
    }

    #[test]
    fn torus_is_4_regular() {
        let csr = simple(&torus_2d(4, 4));
        for i in 0..16 {
            assert_eq!(csr.row_nnz(i), 4, "vertex {i}");
        }
    }

    #[test]
    fn ring_and_path_degrees() {
        let r = simple(&ring(5));
        assert!((0..5).all(|v| r.row_nnz(v) == 2));
        let p = simple(&path(5));
        assert_eq!(p.row_nnz(0), 1);
        assert_eq!(p.row_nnz(2), 2);
        assert_eq!(p.row_nnz(4), 1);
    }

    #[test]
    fn star_and_complete() {
        let s = simple(&star(6));
        assert_eq!(s.row_nnz(0), 5);
        assert!((1..6).all(|v| s.row_nnz(v) == 1));
        let k = simple(&complete(5));
        assert_eq!(k.nnz(), 20);
    }
}

/// Complete bipartite graph `K(a, b)`: vertices `0..a` on the left,
/// `a..a+b` on the right, every left-right pair connected (undirected).
pub fn bipartite_complete(a: usize, b: usize) -> CooMatrix<bool> {
    assert!(a >= 1 && b >= 1, "both sides need at least one vertex");
    let n = a + b;
    let mut coo = CooMatrix::with_capacity(n, n, 2 * a * b);
    for l in 0..a {
        for r in a..n {
            coo.push(l, r, true);
            coo.push(r, l, true);
        }
    }
    coo
}

#[cfg(test)]
mod bipartite_tests {
    use super::*;
    use crate::tests::simple;

    #[test]
    fn k23_structure() {
        let csr = simple(&bipartite_complete(2, 3));
        assert_eq!(csr.nrows(), 5);
        assert_eq!(csr.nnz(), 12); // 2*3 undirected edges
                                   // left vertices have degree 3, right degree 2
        assert_eq!(csr.row_nnz(0), 3);
        assert_eq!(csr.row_nnz(1), 3);
        assert_eq!(csr.row_nnz(2), 2);
        // no intra-side edges
        assert_eq!(csr.get(0, 1), None);
        assert_eq!(csr.get(2, 3), None);
        assert_eq!(csr.get(0, 2), Some(true));
    }

    #[test]
    fn bipartite_graphs_have_no_intra_side_edges() {
        // ... which makes them triangle-free: any triangle would need two
        // vertices on one side to be adjacent.
        let (a, b) = (3usize, 4usize);
        let csr = simple(&bipartite_complete(a, b));
        for i in 0..a {
            for j in 0..a {
                assert_eq!(csr.get(i, j), None, "left-left edge ({i},{j})");
            }
        }
        for i in a..a + b {
            for j in a..a + b {
                assert_eq!(csr.get(i, j), None, "right-right edge ({i},{j})");
            }
        }
        assert_eq!(csr.nnz(), 2 * a * b);
    }
}
