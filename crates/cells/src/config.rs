//! Configuration of offline NN-cell construction: [`CellConfig`] and the
//! constraint-selection [`Strategy`].

use nncell_lp::{LpBudget, SolverKind};

/// The constraint-selection algorithm used when approximating a cell
/// (section 2 of the paper, figure 3's `OptAlg`).
///
/// All five are *exact* with respect to query answers (Lemma 1: dropping
/// constraints can only grow an approximation, so the true cell's
/// approximation always contains the query point); they trade approximation
/// tightness against index-construction time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// All `N−1` bisectors. The exact MBR of the cell; `O(N)` LP constraints
    /// per extent — prohibitive at database scale.
    Correct,
    /// `Correct` with the exactness-preserving constraint prefilter: a rough
    /// superset MBR from the `4·d` nearest rivals prunes every bisector that
    /// cannot touch it. Produces *identical* MBRs to `Correct`.
    CorrectPruned,
    /// All points stored in leaf pages whose page region contains the point.
    Point,
    /// All points stored in leaf pages whose page region intersects a sphere
    /// around the point (radius: [`CellConfig::sphere_radius`]).
    Sphere,
    /// The `2·d` nearest neighbors in the axis directions plus the `2·d`
    /// points with the smallest angular deviation from each axis — a
    /// constant-size (`≤ 4·d`) constraint set, `O(d·d!)` LP cost.
    NnDirection,
}

impl Strategy {
    /// All strategies, in the order the paper's figures plot them.
    pub const ALL: [Strategy; 4] = [
        Strategy::Correct,
        Strategy::Point,
        Strategy::Sphere,
        Strategy::NnDirection,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Correct => "Correct",
            Strategy::CorrectPruned => "Correct(pruned)",
            Strategy::Point => "Point",
            Strategy::Sphere => "Sphere",
            Strategy::NnDirection => "NN-Direction",
        }
    }
}

/// Configuration for [`crate::CellSet::build`]: how each point's NN-cell
/// is approximated, and the simulated page size of the trees the build
/// reads and writes.
///
/// ```
/// use nncell_cells::{CellConfig, Strategy};
/// let cfg = CellConfig::builder()
///     .strategy(Strategy::Sphere)
///     .decompose_pieces(4)
///     .seed(7)
///     .build();
/// assert_eq!(cfg.decompose_pieces, Some(4));
/// ```
#[derive(Clone, Debug)]
pub struct CellConfig {
    /// Constraint-selection strategy.
    pub strategy: Strategy,
    /// LP backend ([`SolverKind::Auto`] picks simplex for small constraint
    /// sets, Seidel for large ones).
    pub solver: SolverKind,
    /// Decompose each cell into at most this many MBR pieces (section 3).
    /// `None` / `Some(1)` disables decomposition.
    pub decompose_pieces: Option<usize>,
    /// Sphere-strategy radius; `None` uses the heuristic
    /// `√d · (1/N)^(1/d)` (≈ 2× the expected NN distance of uniform data —
    /// the paper's printed formula is garbled, see DESIGN.md §5).
    pub sphere_radius: Option<f64>,
    /// RNG seed (Seidel shuffles; fully deterministic builds).
    pub seed: u64,
    /// Worker threads for the cell computations (cells are independent
    /// given the read-only point tree of the gather). `1` = sequential.
    pub threads: usize,
    /// Work budget per LP solve. The default lets each backend size its own
    /// cap; a tiny explicit cap (even 0) is safe — exhausted solves walk the
    /// fallback chain and terminally clamp to the data space, which keeps
    /// answers exact (Lemma 1) at the price of fatter MBRs.
    pub lp_budget: LpBudget,
    /// Simulated disk block size, in bytes, of the point tree the rivals
    /// are gathered from and of the cell tree (the paper fixes 4 KB).
    pub block_size: usize,
}

impl Default for CellConfig {
    /// [`CellConfig::builder`] defaults: NN-Direction strategy, auto
    /// solver, no decomposition, seed 0, one thread, 4 KB blocks.
    fn default() -> Self {
        Self {
            strategy: Strategy::NnDirection,
            solver: SolverKind::Auto,
            decompose_pieces: None,
            sphere_radius: None,
            seed: 0,
            threads: 1,
            lp_budget: LpBudget::DEFAULT,
            block_size: 4096,
        }
    }
}

impl CellConfig {
    /// Starts a builder with the documented defaults.
    pub fn builder() -> CellConfigBuilder {
        CellConfigBuilder {
            cfg: CellConfig::default(),
        }
    }

    /// The effective Sphere radius for a database of `n` points in `d`
    /// dimensions.
    ///
    /// Default: twice the expected nearest-neighbor distance of uniform
    /// data, `2·√(d/(2πe))·n^(−1/d)` (the paper's printed radius formula is
    /// garbled; this matches its stated intent — "a number of points close
    /// to the considered point").
    pub fn effective_sphere_radius(&self, n: usize, d: usize) -> f64 {
        self.sphere_radius.unwrap_or_else(|| {
            let n = n.max(2) as f64;
            let d = d as f64;
            2.0 * (d / (2.0 * std::f64::consts::PI * std::f64::consts::E)).sqrt()
                * (1.0 / n).powf(1.0 / d)
        })
    }
}

/// Chainable constructor for [`CellConfig`], obtained from
/// [`CellConfig::builder`]. Every setter mirrors a config field; `build()`
/// returns the finished config.
#[derive(Clone, Debug, Default)]
pub struct CellConfigBuilder {
    cfg: CellConfig,
}

impl CellConfigBuilder {
    /// Sets the constraint-selection strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Sets the LP backend.
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.cfg.solver = solver;
        self
    }

    /// Enables decomposition into at most `pieces` MBRs per cell.
    ///
    /// # Panics
    /// Panics if `pieces == 0`.
    pub fn decompose_pieces(mut self, pieces: usize) -> Self {
        assert!(pieces >= 1, "decomposition needs at least one piece");
        self.cfg.decompose_pieces = Some(pieces);
        self
    }

    /// Overrides the Sphere-strategy radius.
    ///
    /// # Panics
    /// Panics if `r` is not strictly positive.
    pub fn sphere_radius(mut self, r: f64) -> Self {
        assert!(r > 0.0);
        self.cfg.sphere_radius = Some(r);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the cell-computation worker-thread count.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.cfg.threads = threads;
        self
    }

    /// Caps every LP solve at `n` work units (exhausted solves walk the
    /// fallback chain and terminally clamp; exactness is unaffected).
    pub fn lp_max_iterations(mut self, n: usize) -> Self {
        self.cfg.lp_budget = LpBudget::with_max_iterations(n);
        self
    }

    /// Sets the full LP work budget.
    pub fn lp_budget(mut self, budget: LpBudget) -> Self {
        self.cfg.lp_budget = budget;
        self
    }

    /// Overrides the simulated block size.
    pub fn block_size(mut self, bytes: usize) -> Self {
        self.cfg.block_size = bytes;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> CellConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = CellConfig::builder()
            .strategy(Strategy::Sphere)
            .solver(SolverKind::Seidel)
            .decompose_pieces(4)
            .sphere_radius(0.3)
            .seed(9)
            .threads(3)
            .lp_max_iterations(100)
            .block_size(2048)
            .build();
        assert_eq!(c.strategy, Strategy::Sphere);
        assert_eq!(c.solver, SolverKind::Seidel);
        assert_eq!(c.decompose_pieces, Some(4));
        assert_eq!(c.sphere_radius, Some(0.3));
        assert_eq!(c.seed, 9);
        assert_eq!(c.threads, 3);
        assert_eq!(c.lp_budget.max_iterations, Some(100));
        assert_eq!(c.block_size, 2048);
    }

    #[test]
    fn builder_defaults() {
        let c = CellConfig::builder().build();
        assert_eq!(c.strategy, Strategy::NnDirection);
        assert_eq!(c.seed, 0);
        assert_eq!(c.threads, 1);
        assert_eq!(c.block_size, 4096);
    }

    #[test]
    fn default_radius_shrinks_with_n_and_grows_with_d() {
        let c = CellConfig::builder().strategy(Strategy::Sphere).build();
        let r_small = c.effective_sphere_radius(100, 4);
        let r_big_n = c.effective_sphere_radius(10_000, 4);
        let r_big_d = c.effective_sphere_radius(100, 16);
        assert!(r_big_n < r_small);
        assert!(r_big_d > r_small);
        // Explicit override wins.
        let c2 = CellConfig::builder()
            .strategy(Strategy::Sphere)
            .sphere_radius(0.123)
            .build();
        assert_eq!(c2.effective_sphere_radius(100, 4), 0.123);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::NnDirection.name(), "NN-Direction");
        assert_eq!(Strategy::ALL.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one piece")]
    fn zero_pieces_rejected() {
        let _ = CellConfig::builder().decompose_pieces(0);
    }
}
