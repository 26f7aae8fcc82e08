//! Intra-die process-variation maps.
//!
//! §IV-B: "we assume that the leakage current in Island 1, Island 2 and
//! Island 3 is 1.2×, 1.5× and 2× respectively, of Island 4" (numbers taken
//! from Herbert & Marculescu's variation study). A [`VariationMap`] holds a
//! leakage multiplier per island; multiplier 1.0 everywhere models uniform
//! silicon.

use cpm_units::IslandId;

/// Per-island leakage multipliers.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationMap {
    multipliers: Vec<f64>,
}

impl VariationMap {
    /// A uniform (variation-free) map over `islands` islands.
    pub fn uniform(islands: usize) -> Self {
        Self::new(vec![1.0; islands])
    }

    /// The paper's §IV-B four-island scenario: islands 1–3 leak 1.2×, 1.5×,
    /// 2.0× relative to island 4.
    pub fn paper_four_island() -> Self {
        Self::new(vec![1.2, 1.5, 2.0, 1.0])
    }

    /// Builds a map from explicit multipliers (all must be positive).
    pub fn new(multipliers: Vec<f64>) -> Self {
        assert!(!multipliers.is_empty(), "variation map cannot be empty");
        assert!(
            multipliers.iter().all(|&m| m > 0.0 && m.is_finite()),
            "multipliers must be positive and finite"
        );
        Self { multipliers }
    }

    /// Number of islands covered.
    pub fn islands(&self) -> usize {
        self.multipliers.len()
    }

    /// The multiplier for an island. Panics on out-of-range ids.
    pub fn multiplier(&self, island: IslandId) -> f64 {
        self.multipliers[island.index()]
    }

    /// All multipliers in island order.
    pub fn multipliers(&self) -> &[f64] {
        &self.multipliers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_map_matches_section_4b() {
        let m = VariationMap::paper_four_island();
        assert_eq!(m.islands(), 4);
        assert_eq!(m.multiplier(IslandId(0)), 1.2);
        assert_eq!(m.multiplier(IslandId(1)), 1.5);
        assert_eq!(m.multiplier(IslandId(2)), 2.0);
        assert_eq!(m.multiplier(IslandId(3)), 1.0);
    }

    #[test]
    fn uniform_map() {
        let m = VariationMap::uniform(8);
        assert!(m.multipliers().iter().all(|&x| x == 1.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_multiplier() {
        VariationMap::new(vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_map() {
        VariationMap::new(vec![]);
    }
}
