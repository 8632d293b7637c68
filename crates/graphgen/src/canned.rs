//! Canned small graphs with known properties, for tests and examples.

use gbtl_sparse::CooMatrix;

/// Zachary's karate club: 34 vertices, 78 undirected edges, 45 triangles —
/// the standard social-network toy.
pub fn karate_club() -> CooMatrix<bool> {
    // 1-based edge list from Zachary (1977).
    const EDGES: [(usize, usize); 78] = [
        (1, 2),
        (1, 3),
        (1, 4),
        (1, 5),
        (1, 6),
        (1, 7),
        (1, 8),
        (1, 9),
        (1, 11),
        (1, 12),
        (1, 13),
        (1, 14),
        (1, 18),
        (1, 20),
        (1, 22),
        (1, 32),
        (2, 3),
        (2, 4),
        (2, 8),
        (2, 14),
        (2, 18),
        (2, 20),
        (2, 22),
        (2, 31),
        (3, 4),
        (3, 8),
        (3, 9),
        (3, 10),
        (3, 14),
        (3, 28),
        (3, 29),
        (3, 33),
        (4, 8),
        (4, 13),
        (4, 14),
        (5, 7),
        (5, 11),
        (6, 7),
        (6, 11),
        (6, 17),
        (7, 17),
        (9, 31),
        (9, 33),
        (9, 34),
        (10, 34),
        (14, 34),
        (15, 33),
        (15, 34),
        (16, 33),
        (16, 34),
        (19, 33),
        (19, 34),
        (20, 34),
        (21, 33),
        (21, 34),
        (23, 33),
        (23, 34),
        (24, 26),
        (24, 28),
        (24, 30),
        (24, 33),
        (24, 34),
        (25, 26),
        (25, 28),
        (25, 32),
        (26, 32),
        (27, 30),
        (27, 34),
        (28, 34),
        (29, 32),
        (29, 34),
        (30, 33),
        (30, 34),
        (31, 33),
        (31, 34),
        (32, 33),
        (32, 34),
        (33, 34),
    ];
    let mut coo = CooMatrix::with_capacity(34, 34, 156);
    for &(a, b) in &EDGES {
        coo.push(a - 1, b - 1, true);
        coo.push(b - 1, a - 1, true);
    }
    coo
}

/// A 5-vertex toy with exactly 2 triangles: {0,1,2} and {1,2,3}; vertex 4
/// hangs off vertex 3.
pub fn triangle_toy() -> CooMatrix<bool> {
    const EDGES: [(usize, usize); 6] = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)];
    let mut coo = CooMatrix::with_capacity(5, 5, 12);
    for &(a, b) in &EDGES {
        coo.push(a, b, true);
        coo.push(b, a, true);
    }
    coo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::simple;

    #[test]
    fn karate_shape() {
        let csr = simple(&karate_club());
        assert_eq!(csr.nrows(), 34);
        assert_eq!(csr.nnz(), 156); // 78 undirected edges
                                    // vertex 33 (0-based) is the instructor hub with degree 17
        assert_eq!(csr.row_nnz(33), 17);
        assert_eq!(csr.row_nnz(0), 16);
        // symmetric
        for (i, j, _) in csr.iter() {
            assert_eq!(csr.get(j, i), Some(true));
        }
    }

    #[test]
    fn toy_shape() {
        let csr = simple(&triangle_toy());
        assert_eq!(csr.nrows(), 5);
        assert_eq!(csr.nnz(), 12);
        assert_eq!(csr.row_nnz(4), 1);
    }
}
