//! Sparse r-neighbourhood covers (Section 7 / Theorem 8.1).
//!
//! An r-neighbourhood cover assigns to every element `a` a connected
//! cluster `X(a) ⊇ N_r(a)`. Theorem 8.1 (from \[13\]) guarantees covers of
//! radius ≤ 2r and degree `n^ε` on nowhere dense classes. We use the
//! *least-centre rule* (DESIGN.md §3.4): order the vertices by a
//! degeneracy-style order `L`; the centre of `a` is the L-least vertex of
//! `N_r[a]`, and the cluster of a centre `c` is `N_2r[c]`. This is a
//! correct (r, 2r)-neighbourhood cover on every graph, and its degree is
//! measured empirically in experiment E6.

use foc_structures::{BfsScratch, FxHashMap, Graph, Structure};

/// An (r, ≤2r)-neighbourhood cover of a graph.
#[derive(Debug, Clone)]
pub struct NeighborhoodCover {
    /// The cover radius parameter r.
    pub r: u32,
    /// The clusters, as sorted element lists.
    pub clusters: Vec<Vec<u32>>,
    /// The centre of each cluster (`clusters[i] ⊆ N_2r[centers[i]]`).
    pub centers: Vec<u32>,
    /// `assign[a]` = index of the cluster `X(a)`.
    pub assign: Vec<u32>,
}

impl NeighborhoodCover {
    /// The cluster `X(a)`.
    pub fn cluster_of(&self, a: u32) -> &[u32] {
        &self.clusters[self.assign[a as usize] as usize]
    }

    /// For each cluster index, the elements assigned to it (the sets
    /// `{a : X(a) = X}` that become the `Q` marker of Section 8.2).
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.clusters.len()];
        for (a, &c) in self.assign.iter().enumerate() {
            out[c as usize].push(a as u32);
        }
        out
    }

    /// The maximum degree `Δ(X)`: how many clusters share one element.
    pub fn max_degree(&self) -> usize {
        let n = self.assign.len();
        let mut deg = vec![0usize; n];
        for cl in &self.clusters {
            for &e in cl {
                deg[e as usize] += 1;
            }
        }
        deg.into_iter().max().unwrap_or(0)
    }

    /// Sum of cluster sizes (`Σ_X |X| ≤ n · Δ(X)`).
    pub fn total_weight(&self) -> usize {
        self.clusters.iter().map(|c| c.len()).sum()
    }

    /// The maximum measured cluster radius (from the centre); ≤ 2r by
    /// construction.
    pub fn max_radius(&self, g: &Graph) -> u32 {
        let mut scratch = BfsScratch::new();
        let mut worst = 0u32;
        for (cl, &c) in self.clusters.iter().zip(&self.centers) {
            for &e in cl {
                // Every cluster member is within 2r of its centre by
                // construction; a missing distance would be a cover bug,
                // which `verify` reports separately.
                if let Some(d) = g.dist_bounded(c, e, 2 * self.r, &mut scratch) {
                    worst = worst.max(d);
                }
            }
        }
        worst
    }

    /// Verifies the covering property `N_r(a) ⊆ X(a)` for all `a`
    /// (used by tests and the experiment harness).
    pub fn verify(&self, g: &Graph) -> bool {
        let mut scratch = BfsScratch::new();
        for a in 0..g.n() {
            let ball = g.ball(&[a], self.r, &mut scratch);
            let cluster = self.cluster_of(a);
            if !ball.iter().all(|e| cluster.binary_search(e).is_ok()) {
                return false;
            }
        }
        true
    }
}

/// Builds an (r, 2r)-neighbourhood cover of a graph with the least-centre
/// rule.
pub fn build_cover(g: &Graph, r: u32) -> NeighborhoodCover {
    let pos = g.degeneracy_positions();
    let n = g.n();
    let mut scratch = BfsScratch::new();
    let mut cluster_of_center: FxHashMap<u32, u32> = FxHashMap::default();
    let mut clusters: Vec<Vec<u32>> = Vec::new();
    let mut centers: Vec<u32> = Vec::new();
    let mut assign = vec![0u32; n as usize];
    let mut ball = Vec::new();
    for a in 0..n {
        g.ball_into(&[a], r, &mut scratch, &mut ball);
        // The r-ball around `a` always contains `a` itself.
        let c = ball
            .iter()
            .copied()
            .min_by_key(|&w| pos[w as usize])
            .unwrap_or(a);
        let idx = *cluster_of_center.entry(c).or_insert_with(|| {
            let idx = clusters.len() as u32;
            let cluster = g.ball(&[c], 2 * r, &mut scratch);
            clusters.push(cluster);
            centers.push(c);
            idx
        });
        assign[a as usize] = idx;
    }
    NeighborhoodCover {
        r,
        clusters,
        centers,
        assign,
    }
}

/// Convenience: a cover of a structure's Gaifman graph.
pub fn cover_structure(a: &Structure, r: u32) -> NeighborhoodCover {
    build_cover(a.gaifman(), r)
}

/// A trivial baseline cover (`X(a) = N_r(a)`, one cluster per element) —
/// minimum radius, maximum cluster count. Used by the cover-rule ablation
/// in the benchmarks.
pub fn trivial_cover(g: &Graph, r: u32) -> NeighborhoodCover {
    let n = g.n();
    let mut scratch = BfsScratch::new();
    let mut clusters = Vec::with_capacity(n as usize);
    let mut centers = Vec::with_capacity(n as usize);
    let mut assign = Vec::with_capacity(n as usize);
    for a in 0..n {
        clusters.push(g.ball(&[a], r, &mut scratch));
        centers.push(a);
        assign.push(a);
    }
    NeighborhoodCover {
        r,
        clusters,
        centers,
        assign,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_structures::gen::{clique, cycle, grid, path, random_tree, star};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_cover(s: &Structure, r: u32) -> NeighborhoodCover {
        let cov = cover_structure(s, r);
        let g = s.gaifman();
        assert!(cov.verify(g), "cover property violated at r={r}");
        assert!(cov.max_radius(g) <= 2 * r, "radius exceeds 2r");
        cov
    }

    #[test]
    fn covers_on_paths_are_thin() {
        let s = path(64);
        for r in [1u32, 2, 3] {
            let cov = check_cover(&s, r);
            assert!(
                cov.max_degree() <= (4 * r + 2) as usize,
                "degree {}",
                cov.max_degree()
            );
            assert!(cov.clusters.len() >= (64 / (4 * r + 1)) as usize);
        }
    }

    #[test]
    fn covers_on_trees_grids_cycles() {
        let mut rng = StdRng::seed_from_u64(12);
        for s in [
            random_tree(100, &mut rng),
            grid(10, 10),
            cycle(30),
            star(30),
        ] {
            for r in [1u32, 2] {
                let cov = check_cover(&s, r);
                assert!(cov.max_degree() >= 1);
            }
        }
    }

    #[test]
    fn clique_cover_is_one_fat_cluster() {
        let s = clique(20);
        let cov = check_cover(&s, 1);
        // Everyone's ball is everything; the least-centre rule gives a
        // single cluster.
        assert_eq!(cov.clusters.len(), 1);
        assert_eq!(cov.clusters[0].len(), 20);
    }

    #[test]
    fn members_partition_universe() {
        let s = grid(8, 8);
        let cov = check_cover(&s, 2);
        let members = cov.members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, 64);
        for (i, m) in members.iter().enumerate() {
            for &a in m {
                assert_eq!(cov.assign[a as usize] as usize, i);
            }
        }
    }

    #[test]
    fn trivial_cover_is_valid() {
        let s = grid(6, 6);
        let cov = trivial_cover(s.gaifman(), 2);
        assert!(cov.verify(s.gaifman()));
        assert_eq!(cov.clusters.len(), 36);
    }
}
