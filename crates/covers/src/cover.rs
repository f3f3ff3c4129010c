//! Sparse r-neighbourhood covers (Section 7 / Theorem 8.1).
//!
//! An r-neighbourhood cover assigns to every element `a` a connected
//! cluster `X(a) ⊇ N_r(a)`. Theorem 8.1 (from \[13\]) guarantees covers of
//! radius ≤ 2r and degree `n^ε` on nowhere dense classes. We use the
//! *least-centre rule* (DESIGN.md §3.4) over a *net-first* order: walk
//! the vertices in a degeneracy-style order; a vertex no cluster has
//! claimed yet becomes a centre `c`, its cluster is `N_2r[c]`, and it
//! claims every unclaimed vertex of `N_r[c]`. The centres form a greedy
//! r-net (pairwise more than r apart, every vertex within r of one), and
//! `a` belongs to the first centre whose r-ball reaches it — the least
//! centre of `N_r[a]` in the order that lists the centres first. This is
//! a correct (r, 2r)-neighbourhood cover on every graph, and its degree
//! is measured empirically in experiment E6.

use foc_structures::{BfsScratch, Graph, Structure};

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
/// rule, the centres of a greedy r-net first (two BFS per centre).
pub fn build_cover(g: &Graph, r: u32) -> NeighborhoodCover {
    const UNCLAIMED: u32 = u32::MAX;
    let mut order = vec![0u32; g.n() as usize];
    for (v, &p) in g.degeneracy_positions().iter().enumerate() {
        order[p as usize] = v as u32;
    }
    let mut scratch = BfsScratch::new();
    let mut clusters: Vec<Vec<u32>> = Vec::new();
    let mut centers: Vec<u32> = Vec::new();
    let mut assign = vec![UNCLAIMED; g.n() as usize];
    let mut ball = Vec::new();
    for c in order {
        if assign[c as usize] != UNCLAIMED {
            continue;
        }
        let idx = clusters.len() as u32;
        g.ball_into(&[c], r, &mut scratch, &mut ball);
        for &a in &ball {
            if assign[a as usize] == UNCLAIMED {
                assign[a as usize] = idx;
            }
        }
        clusters.push(g.ball(&[c], 2 * r, &mut scratch));
        centers.push(c);
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
    use foc_structures::gen::{bounded_degree, clique, cycle, grid, path, random_tree, star};
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

    /// The centres form a greedy r-net: pairwise more than r apart, and
    /// every element lies within r of its own cluster's centre.
    #[test]
    fn centres_form_an_r_net() {
        let mut rng = StdRng::seed_from_u64(5);
        for s in [
            random_tree(120, &mut rng),
            bounded_degree(120, 3, 360, &mut rng),
            grid(11, 11),
            clique(8),
            path(40),
        ] {
            let g = s.gaifman();
            let mut scratch = BfsScratch::new();
            for r in 0u32..=4 {
                let cov = check_cover(&s, r);
                for (i, &c) in cov.centers.iter().enumerate() {
                    for &other in &cov.centers[i + 1..] {
                        assert_eq!(
                            g.dist_bounded(c, other, r, &mut scratch),
                            None,
                            "centres {c} and {other} within r={r}"
                        );
                    }
                }
                for a in 0..g.n() {
                    let c = cov.centers[cov.assign[a as usize] as usize];
                    assert!(
                        g.dist_bounded(c, a, r, &mut scratch).is_some(),
                        "element {a} farther than r={r} from its centre {c}"
                    );
                }
            }
        }
    }

    /// On the 32×32 grid no element sits in more than 16 clusters at any
    /// radius up to 6.
    #[test]
    fn grid_cover_degree_stays_small() {
        let s = grid(32, 32);
        for r in 1u32..=6 {
            let cov = check_cover(&s, r);
            assert!(cov.max_degree() <= 16, "r={r}: degree {}", cov.max_degree());
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
