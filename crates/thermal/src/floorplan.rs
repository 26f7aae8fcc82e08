//! Core placement on the die and the neighbour relation used for lateral
//! heat flow and for the thermal-aware policy's "nearby cores" constraint.
//!
//! Cores sit on a regular `rows × cols` grid (Fig. 1 arranges islands
//! around the shared last-level cache; the thermal coupling that matters is
//! core-to-core adjacency, which a grid captures). Core ids are assigned
//! row-major.

use cpm_units::CoreId;

/// A rectangular grid floorplan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Floorplan {
    rows: usize,
    cols: usize,
}

impl Floorplan {
    /// Creates a `rows × cols` grid with at least one core.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "floorplan must contain cores");
        Self { rows, cols }
    }

    /// A near-square grid for `n` cores: `ceil(n / cols)` rows of
    /// `cols = ceil(sqrt(n))` columns. Panics unless the grid is exactly
    /// filled (n must factor into the chosen shape); use [`Floorplan::grid`]
    /// for irregular counts.
    pub fn for_cores(n: usize) -> Self {
        assert!(n > 0);
        // Prefer the squarest exact factorization.
        let mut best = (1, n);
        let mut r = 1;
        while r * r <= n {
            if n % r == 0 {
                best = (r, n / r);
            }
            r += 1;
        }
        Self::grid(best.0, best.1)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cores.
    pub fn cores(&self) -> usize {
        self.rows * self.cols
    }

    /// The `(row, col)` position of a core. Panics when out of range.
    pub fn position(&self, core: CoreId) -> (usize, usize) {
        assert!(core.index() < self.cores(), "core {core} outside floorplan");
        (core.index() / self.cols, core.index() % self.cols)
    }

    /// The core at `(row, col)`.
    pub fn core_at(&self, row: usize, col: usize) -> CoreId {
        assert!(row < self.rows && col < self.cols);
        CoreId(row * self.cols + col)
    }

    /// The 4-connected (Manhattan) neighbours of a core.
    pub fn neighbors(&self, core: CoreId) -> Vec<CoreId> {
        let (r, c) = self.position(core);
        let mut out = Vec::with_capacity(4);
        if r > 0 {
            out.push(self.core_at(r - 1, c));
        }
        if r + 1 < self.rows {
            out.push(self.core_at(r + 1, c));
        }
        if c > 0 {
            out.push(self.core_at(r, c - 1));
        }
        if c + 1 < self.cols {
            out.push(self.core_at(r, c + 1));
        }
        out
    }

    /// Manhattan distance between two cores.
    pub fn distance(&self, a: CoreId, b: CoreId) -> usize {
        let (ra, ca) = self.position(a);
        let (rb, cb) = self.position(b);
        ra.abs_diff(rb) + ca.abs_diff(cb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_are_row_major() {
        let fp = Floorplan::grid(2, 4);
        assert_eq!(fp.position(CoreId(0)), (0, 0));
        assert_eq!(fp.position(CoreId(3)), (0, 3));
        assert_eq!(fp.position(CoreId(4)), (1, 0));
        assert_eq!(fp.core_at(1, 2), CoreId(6));
    }

    #[test]
    fn corner_edge_center_neighbor_counts() {
        let fp = Floorplan::grid(3, 3);
        assert_eq!(fp.neighbors(CoreId(0)).len(), 2); // corner
        assert_eq!(fp.neighbors(CoreId(1)).len(), 3); // edge
        assert_eq!(fp.neighbors(CoreId(4)).len(), 4); // center
    }

    #[test]
    fn adjacency_is_symmetric() {
        let fp = Floorplan::grid(2, 4);
        for a in 0..fp.cores() {
            for b in 0..fp.cores() {
                assert_eq!(
                    fp.distance(CoreId(a), CoreId(b)),
                    fp.distance(CoreId(b), CoreId(a))
                );
            }
        }
    }

    #[test]
    fn adjacency_matches_neighbors() {
        let fp = Floorplan::grid(2, 4);
        for a in 0..fp.cores() {
            for n in fp.neighbors(CoreId(a)) {
                assert_eq!(fp.distance(CoreId(a), n), 1);
            }
        }
    }

    #[test]
    fn for_cores_produces_exact_squarest_grid() {
        let fp8 = Floorplan::for_cores(8);
        assert_eq!((fp8.rows(), fp8.cols()), (2, 4));
        let fp16 = Floorplan::for_cores(16);
        assert_eq!((fp16.rows(), fp16.cols()), (4, 4));
        let fp32 = Floorplan::for_cores(32);
        assert_eq!((fp32.rows(), fp32.cols()), (4, 8));
        assert_eq!(Floorplan::for_cores(7).cores(), 7);
    }

    #[test]
    fn no_self_adjacency() {
        let fp = Floorplan::grid(2, 2);
        assert_eq!(fp.distance(CoreId(1), CoreId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "outside floorplan")]
    fn out_of_range_core_panics() {
        Floorplan::grid(2, 2).position(CoreId(4));
    }
}
