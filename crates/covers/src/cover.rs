//! Sparse r-neighbourhood covers (Section 7 / Theorem 8.1).
//!
//! An r-neighbourhood cover assigns to every element `a` a connected
//! cluster `X(a) ⊇ N_r(a)`. Theorem 8.1 (from \[13\]) guarantees covers of
//! radius ≤ 2r and degree `n^ε` on nowhere dense classes. We use the
//! *least-centre rule* (DESIGN.md §3.4) over a *hub-first* order: walk
//! the hubs (see [`hub_degree`]) by degree, descending, then the other
//! vertices by degree, ascending (ties by id); a vertex no cluster has
//! claimed yet becomes a centre `c`, its cluster is `N_2r[c]`, and it
//! claims every unclaimed vertex of `N_r[c]`. The centres form a greedy
//! r-net (pairwise more than r apart, every vertex within r of one), and
//! `a` belongs to the first centre whose r-ball reaches it — the least
//! centre of `N_r[a]` in the order that lists the centres first. This is
//! a correct (r, 2r)-neighbourhood cover on every graph, and its degree
//! is measured empirically in experiment E6. Hubs first makes a hub a
//! centre before any of its neighbours can claim it, so a star is one
//! cluster, not one per leaf; low degree first among the rest keeps the
//! cover degree of hubless trees low (a fully descending walk doubles it
//! at r = 1 on random trees, see EXPERIMENTS.md E6).
//!
//! Clusters are built lazily. Building a cover claims the r-balls only;
//! the `N_2r[c]` ball is built up front just for the centres within 2r
//! of a *hub* (a vertex of degree above `⌊√n⌋`, see [`hub_degree`]) —
//! the only clusters the Section 8.2 engine may send through removal.
//! Every other cluster is materialised on request by
//! [`NeighborhoodCover::cluster`].

use std::borrow::Cow;

use foc_structures::{BfsScratch, DistLayer, Graph, Structure};

/// An (r, ≤2r)-neighbourhood cover of a graph.
#[derive(Debug, Clone)]
pub struct NeighborhoodCover {
    /// The cover radius parameter r.
    pub r: u32,
    /// The centre of each cluster; cluster `i` is the ball of radius
    /// `ball_radius` around `centers[i]`.
    pub centers: Vec<u32>,
    /// `assign[a]` = index of the cluster `X(a)`.
    pub assign: Vec<u32>,
    /// Radius of the cluster balls: `2r`, or `r` for [`trivial_cover`].
    ball_radius: u32,
    /// The clusters built with the cover (sorted element lists): those
    /// whose centre lies within `ball_radius` of a hub. `None` elsewhere.
    prebuilt: Vec<Option<Vec<u32>>>,
}

impl NeighborhoodCover {
    /// The number of clusters.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// `true` iff the cover has no cluster (the empty graph).
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Cluster `i` if it was built with the cover, i.e. its centre lies
    /// within `2r` of a hub; `None` for a cluster that holds no hub.
    pub fn prebuilt(&self, i: usize) -> Option<&[u32]> {
        self.prebuilt[i].as_deref()
    }

    /// Cluster `i` as a sorted element list: the prebuilt one, or its
    /// ball built now with `scratch`. Every consumer that needs the
    /// clusters of a cover materialises them through this method.
    pub fn cluster<'c>(&'c self, g: &Graph, i: usize, scratch: &mut BfsScratch) -> Cow<'c, [u32]> {
        match self.prebuilt(i) {
            Some(c) => Cow::Borrowed(c),
            None => Cow::Owned(g.ball(&[self.centers[i]], self.ball_radius, scratch)),
        }
    }

    /// The cluster `X(a)`.
    pub fn cluster_of(&self, g: &Graph, a: u32) -> Cow<'_, [u32]> {
        self.cluster(g, self.assign[a as usize] as usize, &mut BfsScratch::new())
    }

    /// For each cluster index, the elements assigned to it (the sets
    /// `{a : X(a) = X}` that become the `Q` marker of Section 8.2).
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.len()];
        for (a, &c) in self.assign.iter().enumerate() {
            out[c as usize].push(a as u32);
        }
        out
    }

    /// Calls `f(i, X_i)` for every cluster, materialising each in turn.
    fn for_each_cluster(&self, g: &Graph, mut f: impl FnMut(usize, &[u32])) {
        let mut scratch = BfsScratch::new();
        for i in 0..self.len() {
            f(i, &self.cluster(g, i, &mut scratch));
        }
    }

    /// The maximum degree `Δ(X)`: how many clusters share one element.
    pub fn max_degree(&self, g: &Graph) -> usize {
        let mut deg = vec![0usize; self.assign.len()];
        self.for_each_cluster(g, |_, cl| {
            for &e in cl {
                deg[e as usize] += 1;
            }
        });
        deg.into_iter().max().unwrap_or(0)
    }

    /// Sum of cluster sizes (`Σ_X |X| ≤ n · Δ(X)`).
    pub fn total_weight(&self, g: &Graph) -> usize {
        let mut total = 0;
        self.for_each_cluster(g, |_, cl| total += cl.len());
        total
    }

    /// The maximum measured cluster radius (from the centre); ≤ 2r by
    /// construction.
    pub fn max_radius(&self, g: &Graph) -> u32 {
        let mut layer = DistLayer::new();
        let mut worst = 0u32;
        self.for_each_cluster(g, |i, cl| {
            layer.fill(g, self.centers[i], 2 * self.r);
            for &e in cl {
                // Every cluster member is within 2r of its centre by
                // construction; a missing distance would be a cover bug,
                // which `verify` reports separately.
                if let Some(d) = layer.get(e) {
                    worst = worst.max(d);
                }
            }
        });
        worst
    }

    /// Verifies the covering property `N_r(a) ⊆ X(a)` for all `a`
    /// (used by tests and the experiment harness).
    pub fn verify(&self, g: &Graph) -> bool {
        if self.assign.len() != g.n() as usize {
            return false;
        }
        let members = self.members();
        let mut scratch = BfsScratch::new();
        let mut ok = true;
        self.for_each_cluster(g, |i, cl| {
            for &a in &members[i] {
                let ball = g.ball(&[a], self.r, &mut scratch);
                ok &= ball.iter().all(|e| cl.binary_search(e).is_ok());
            }
        });
        ok
    }
}

/// The degree a vertex of a graph of `n` vertices must exceed to be a
/// *hub*: `⌊√n⌋`. A graph with `m` edges has fewer than `2m/√n` hubs
/// (fewer than `2√n` on a tree), and a bounded-degree graph of more than
/// a few hundred vertices has none.
pub fn hub_degree(n: u32) -> usize {
    f64::from(n).sqrt() as usize
}

/// The hubs by degree, descending, then the rest by degree, ascending;
/// ties by id: a counting sort.
fn hub_first_order(g: &Graph) -> Vec<u32> {
    let max = g.max_degree();
    let hub = hub_degree(g.n());
    let key = |v: u32| {
        let d = g.degree(v);
        if d > hub {
            max - d
        } else {
            max + 1 + d
        }
    };
    // `next[k]` = next free slot for key `k`.
    let mut next = vec![0usize; 2 * max + 3];
    for v in 0..g.n() {
        next[key(v) + 1] += 1;
    }
    for k in 1..next.len() {
        next[k] += next[k - 1];
    }
    let mut order = vec![0u32; g.n() as usize];
    for v in 0..g.n() {
        let slot = &mut next[key(v)];
        order[*slot] = v;
        *slot += 1;
    }
    order
}

/// Builds an (r, 2r)-neighbourhood cover of a graph with the least-centre
/// rule over the hub-first order: one BFS per centre for its claim, plus
/// one multi-source BFS from the hubs and one BFS per centre near them
/// for the clusters built up front.
pub fn build_cover(g: &Graph, r: u32) -> NeighborhoodCover {
    const UNCLAIMED: u32 = u32::MAX;
    let order = hub_first_order(g);
    let mut scratch = BfsScratch::new();
    let mut centers: Vec<u32> = Vec::new();
    let mut assign = vec![UNCLAIMED; g.n() as usize];
    let mut ball = Vec::new();
    for &c in &order {
        if assign[c as usize] != UNCLAIMED {
            continue;
        }
        let idx = centers.len() as u32;
        g.ball_into(&[c], r, &mut scratch, &mut ball);
        for &a in &ball {
            if assign[a as usize] == UNCLAIMED {
                assign[a as usize] = idx;
            }
        }
        centers.push(c);
    }
    // The hubs are a prefix of the order.
    let hub = hub_degree(g.n());
    let hubs = order.partition_point(|&v| g.degree(v) > hub);
    let mut prebuilt = vec![None; centers.len()];
    if hubs > 0 {
        g.ball_into(&order[..hubs], 2 * r, &mut scratch, &mut ball);
        for (slot, &c) in prebuilt.iter_mut().zip(&centers) {
            if ball.binary_search(&c).is_ok() {
                *slot = Some(g.ball(&[c], 2 * r, &mut scratch));
            }
        }
    }
    NeighborhoodCover {
        r,
        centers,
        assign,
        ball_radius: 2 * r,
        prebuilt,
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
    NeighborhoodCover {
        r,
        centers: (0..n).collect(),
        assign: (0..n).collect(),
        ball_radius: r,
        prebuilt: vec![None; n as usize],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_structures::gen::{
        bounded_degree, clique, cycle, graph_structure, grid, path, random_tree, star,
    };
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
            let g = s.gaifman();
            assert!(
                cov.max_degree(g) <= (4 * r + 2) as usize,
                "degree {}",
                cov.max_degree(g)
            );
            assert!(cov.len() >= (64 / (4 * r + 1)) as usize);
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
                assert!(cov.max_degree(s.gaifman()) >= 1);
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
            let degree = cov.max_degree(s.gaifman());
            assert!(degree <= 16, "r={r}: degree {degree}");
        }
    }

    #[test]
    fn clique_cover_is_one_fat_cluster() {
        let s = clique(20);
        let cov = check_cover(&s, 1);
        // Everyone's ball is everything; the least-centre rule gives a
        // single cluster.
        assert_eq!(cov.len(), 1);
        assert_eq!(cov.total_weight(s.gaifman()), 20);
    }

    /// The hub is walked first, so at r = 1 it claims every leaf: a star
    /// is one cluster of cover degree 1, built up front because its
    /// centre is the hub.
    #[test]
    fn star_cover_is_one_cluster_around_the_hub() {
        let s = star(2000);
        let cov = check_cover(&s, 1);
        assert_eq!(cov.len(), 1);
        assert_eq!(cov.centers, vec![0]);
        assert_eq!(cov.max_degree(s.gaifman()), 1);
        assert_eq!(cov.prebuilt(0).map(<[u32]>::len), Some(2000));
    }

    #[test]
    fn order_puts_hubs_first_then_low_degree() {
        // Degrees: 0 → 1, 1 → 4, 2 → 1, 3 → 3, 4 → 1, 5 → 1, 6 → 3,
        // 7..=8 → 1; ⌊√9⌋ = 3, so 1 is the only hub.
        let edges = [
            (1, 0),
            (1, 2),
            (1, 3),
            (1, 6),
            (3, 4),
            (3, 5),
            (6, 7),
            (6, 8),
        ];
        let order = hub_first_order(graph_structure(9, &edges).gaifman());
        assert_eq!(order, vec![1, 0, 2, 4, 5, 7, 8, 3, 6]);
        // Two hubs of different degree: the larger comes first.
        let mut edges: Vec<(u32, u32)> = (2..12).map(|l| (0, l)).collect();
        edges.extend((12..20).map(|l| (1, l)));
        let order = hub_first_order(graph_structure(20, &edges).gaifman());
        assert_eq!(&order[..3], &[0, 1, 2]);
    }

    /// Without a hub nothing is built up front; with one, exactly the
    /// clusters whose centre lies within 2r of it are.
    #[test]
    fn clusters_are_prebuilt_only_near_hubs() {
        let mut rng = StdRng::seed_from_u64(3);
        let tree = random_tree(2000, &mut rng);
        let cov = check_cover(&tree, 2);
        assert!((0..cov.len()).all(|i| cov.prebuilt(i).is_none()));
        // Two stars of 60 leaves (hubs 0 and 61) joined by a 40-path.
        let mut edges: Vec<(u32, u32)> = (1..=60).map(|l| (0, l)).collect();
        edges.extend((62..=121).map(|l| (61, l)));
        let path: Vec<u32> = std::iter::once(60).chain(122..162).chain([121]).collect();
        edges.extend(path.windows(2).map(|w| (w[0], w[1])));
        let s = graph_structure(162, &edges);
        let g = s.gaifman();
        let mut scratch = BfsScratch::new();
        for r in [1u32, 2] {
            let cov = check_cover(&s, r);
            let near = g.ball(&[0, 61], 2 * r, &mut scratch);
            for (i, &c) in cov.centers.iter().enumerate() {
                assert_eq!(
                    cov.prebuilt(i).is_some(),
                    near.binary_search(&c).is_ok(),
                    "r={r}: centre {c}"
                );
            }
        }
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
        assert_eq!(cov.len(), 36);
        assert_eq!(
            &*cov.cluster_of(s.gaifman(), 7),
            &[0, 1, 2, 6, 7, 8, 9, 12, 13, 14, 19]
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64, ..proptest::prelude::ProptestConfig::default() })]

        /// Every cluster, prebuilt or materialised later, equals an eager
        /// `N_2r[c]` BFS, and the cover is valid, on random graphs of
        /// order 2..60 where vertex 0 is joined to the next `legs`
        /// vertices (a hub for larger `legs`).
        #[test]
        fn lazy_clusters_equal_eager_balls(
            n in 2u32..60,
            edges in proptest::collection::vec((0u32..60, 0u32..60), 0..90),
            legs in 0u32..60,
            r in 0u32..4,
        ) {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(a, b)| (a % n, b % n))
                .chain((1..=legs.min(n - 1)).map(|l| (0, l)))
                .collect();
            let s = graph_structure(n, &edges);
            let g = s.gaifman();
            let cov = cover_structure(&s, r);
            proptest::prop_assert!(cov.verify(g));
            let mut scratch = BfsScratch::new();
            for (i, &c) in cov.centers.iter().enumerate() {
                let eager = g.ball(&[c], 2 * r, &mut scratch);
                proptest::prop_assert_eq!(&*cov.cluster(g, i, &mut scratch), &eager[..]);
                if let Some(built) = cov.prebuilt(i) {
                    proptest::prop_assert_eq!(built, &eager[..]);
                }
            }
        }
    }
}
