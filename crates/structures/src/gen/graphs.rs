//! Generators for the graph classes the paper discusses: trees and
//! bounded-degree graphs (where FOC(P) is tractable, \[16\]), planar grids
//! and sparse random graphs (nowhere dense), and cliques (somewhere dense,
//! the negative control for the cover/splitter experiments).
//!
//! All generators produce structures over the signature `{E/2}` with a
//! *symmetric* edge relation, so `E(x,y)` behaves like an undirected edge
//! and the Gaifman graph equals the generated graph.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::hash::FxHashSet;
use crate::structure::{Structure, StructureBuilder};

/// Builds the `{E/2}` structure for an undirected edge list.
pub fn graph_structure(n: u32, edges: &[(u32, u32)]) -> Structure {
    let mut b = StructureBuilder::new();
    b.declare("E", 2);
    b.ensure_universe(n.max(1));
    for &(u, v) in edges {
        if u != v {
            b.try_insert("E", &[u, v]).expect("declared relation");
            b.try_insert("E", &[v, u]).expect("declared relation");
        }
    }
    b.finish()
}

/// A path `0 − 1 − … − (n−1)`.
pub fn path(n: u32) -> Structure {
    let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    graph_structure(n, &edges)
}

/// A cycle on `n ≥ 3` vertices.
pub fn cycle(n: u32) -> Structure {
    assert!(n >= 3, "cycles need at least 3 vertices");
    let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    edges.push((n - 1, 0));
    graph_structure(n, &edges)
}

/// A star: hub `0`, leaves `1..n`.
pub fn star(n: u32) -> Structure {
    let edges: Vec<(u32, u32)> = (1..n).map(|i| (0, i)).collect();
    graph_structure(n, &edges)
}

/// The complete graph `K_n` — a *somewhere dense* control class.
pub fn clique(n: u32) -> Structure {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    graph_structure(n, &edges)
}

/// A `w × h` grid (planar, hence nowhere dense).
pub fn grid(w: u32, h: u32) -> Structure {
    assert!(w >= 1 && h >= 1);
    let id = |x: u32, y: u32| y * w + x;
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    graph_structure(w * h, &edges)
}

/// A complete `b`-ary tree of the given `depth` (depth 0 is a single
/// root).
pub fn balanced_tree(b: u32, depth: u32) -> Structure {
    assert!(b >= 1);
    let mut edges = Vec::new();
    let mut level: Vec<u32> = vec![0];
    let mut next_id = 1u32;
    for _ in 0..depth {
        let mut next_level = Vec::new();
        for &p in &level {
            for _ in 0..b {
                edges.push((p, next_id));
                next_level.push(next_id);
                next_id += 1;
            }
        }
        level = next_level;
    }
    graph_structure(next_id, &edges)
}

/// A uniformly random recursive tree: vertex `i` attaches to a uniform
/// earlier vertex. Degrees are `O(log n)` in expectation, and the class
/// of all trees is nowhere dense.
pub fn random_tree(n: u32, rng: &mut impl Rng) -> Structure {
    let mut edges = Vec::with_capacity(n.saturating_sub(1) as usize);
    for i in 1..n {
        let p = rng.gen_range(0..i);
        edges.push((p, i));
    }
    graph_structure(n, &edges)
}

/// A caterpillar: a spine path with `legs` pendant vertices per spine
/// vertex. Unranked-tree-like, with controllable degree.
pub fn caterpillar(spine: u32, legs: u32) -> Structure {
    let mut edges: Vec<(u32, u32)> = (0..spine.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    let mut next = spine;
    for s in 0..spine {
        for _ in 0..legs {
            edges.push((s, next));
            next += 1;
        }
    }
    graph_structure(next, &edges)
}

/// `stars` stars of `leaves` leaves each whose hubs are joined in a
/// chain by paths of `gap` edges: hub `i` is `i · (leaves + gap)`,
/// followed by its leaves and then the inner vertices of the path to the
/// next hub. With `gap > 4r` no (r, 2r)-cover cluster holds two hubs.
pub fn star_chain(stars: u32, leaves: u32, gap: u32) -> Structure {
    assert!(gap >= 1);
    let block = leaves + gap;
    let mut edges = Vec::new();
    for i in 0..stars {
        let hub = i * block;
        edges.extend((1..=leaves).map(|l| (hub, hub + l)));
        if i + 1 < stars {
            let inner: Vec<u32> = (hub + leaves + 1..hub + block).collect();
            let chain: Vec<u32> = std::iter::once(hub)
                .chain(inner)
                .chain(std::iter::once(hub + block))
                .collect();
            edges.extend(chain.windows(2).map(|w| (w[0], w[1])));
        }
    }
    let n = stars.saturating_sub(1) * block + if stars > 0 { 1 + leaves } else { 0 };
    graph_structure(n, &edges)
}

/// A random graph with maximum degree at most `d`: `tries` random pairs
/// are proposed and kept when both endpoints still have spare degree.
/// With `tries = c·n` this produces a connected-ish bounded-degree graph,
/// the class where \[16\] proved FOC(P) tractable.
pub fn bounded_degree(n: u32, d: u32, tries: usize, rng: &mut impl Rng) -> Structure {
    let mut deg = vec![0u32; n as usize];
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut edges = Vec::new();
    for _ in 0..tries {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.contains(&key) || deg[u as usize] >= d || deg[v as usize] >= d {
            continue;
        }
        seen.insert(key);
        deg[u as usize] += 1;
        deg[v as usize] += 1;
        edges.push(key);
    }
    graph_structure(n, &edges)
}

/// An Erdős–Rényi `G(n, m)` graph: `m` distinct uniform edges. With
/// `m = c·n` for constant `c` these are sparse on average but have
/// unbounded degree (log-factor hubs).
pub fn gnm(n: u32, m: usize, rng: &mut impl Rng) -> Structure {
    assert!(n >= 2 || m == 0);
    let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut edges = Vec::with_capacity(m);
    let max_edges = (n as u64) * (n as u64 - 1) / 2;
    let m = m.min(max_edges as usize);
    while edges.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            edges.push(key);
        }
    }
    graph_structure(n, &edges)
}

/// An unranked tree of `n` vertices whose shape interpolates between a
/// path (`spread = 0.0`) and a star (`spread = 1.0`): vertex `i` attaches
/// to the previous vertex with probability `1 − spread`, otherwise to a
/// uniformly random earlier vertex. High `spread` yields high-degree
/// hubs — the unbounded-degree tree class of Theorem 4.1.
pub fn unranked_tree(n: u32, spread: f64, rng: &mut impl Rng) -> Structure {
    let mut edges = Vec::with_capacity(n.saturating_sub(1) as usize);
    for i in 1..n {
        let p = if rng.gen_bool(spread.clamp(0.0, 1.0)) {
            rng.gen_range(0..i)
        } else {
            i - 1
        };
        edges.push((p, i));
    }
    graph_structure(n, &edges)
}

/// A random planar-ish "toroidal grid with chords removed": a grid with a
/// random `frac` of its edges deleted, then isolated repair. Stays planar
/// and sub-grid sparse; used as a second nowhere dense class.
pub fn thinned_grid(w: u32, h: u32, frac: f64, rng: &mut impl Rng) -> Structure {
    let full = grid(w, h);
    let e = foc_logic::Symbol::new("E");
    let rel = full.relation(e).expect("grid has E");
    let mut edges: Vec<(u32, u32)> = rel
        .rows()
        .filter(|r| r[0] < r[1])
        .map(|r| (r[0], r[1]))
        .collect();
    edges.shuffle(rng);
    let keep = ((edges.len() as f64) * (1.0 - frac.clamp(0.0, 1.0))).round() as usize;
    edges.truncate(keep.max(1));
    graph_structure(w * h, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_and_cycle_shapes() {
        let p = path(5);
        assert_eq!(p.gaifman().num_edges(), 4);
        assert!(p.gaifman().is_connected());
        let c = cycle(5);
        assert_eq!(c.gaifman().num_edges(), 5);
        assert!(c.gaifman().neighbors(0).len() == 2);
    }

    #[test]
    fn clique_and_star_degrees() {
        let k = clique(6);
        assert_eq!(k.gaifman().num_edges(), 15);
        assert_eq!(k.gaifman().max_degree(), 5);
        let s = star(6);
        assert_eq!(s.gaifman().degree(0), 5);
        assert_eq!(s.gaifman().degree(3), 1);
    }

    #[test]
    fn star_chain_shape() {
        let s = star_chain(3, 4, 5);
        let g = s.gaifman();
        assert_eq!(s.order(), 2 * 9 + 5);
        assert_eq!(g.num_edges(), 3 * 4 + 2 * 5);
        assert!(g.is_connected());
        let mut scratch = crate::BfsScratch::new();
        for (hub, degree) in [(0, 5), (9, 6), (18, 5)] {
            assert_eq!(g.degree(hub), degree);
        }
        assert_eq!(g.dist_bounded(0, 9, 10, &mut scratch), Some(5));
        assert_eq!(g.dist_bounded(9, 18, 10, &mut scratch), Some(5));
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 3);
        assert_eq!(g.order(), 12);
        assert_eq!(g.gaifman().num_edges(), (3 * 3) + (4 * 2));
        assert!(g.gaifman().is_connected());
        assert!(g.gaifman().max_degree() <= 4);
    }

    #[test]
    fn trees_are_trees() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1u32, 2, 10, 100] {
            let t = random_tree(n, &mut rng);
            assert_eq!(t.gaifman().num_edges() as u32, n - 1);
            assert!(t.gaifman().is_connected());
        }
        let b = balanced_tree(2, 3);
        assert_eq!(b.order(), 15);
        assert!(b.gaifman().is_connected());
        let u = unranked_tree(200, 0.9, &mut rng);
        assert_eq!(u.gaifman().num_edges(), 199);
    }

    #[test]
    fn caterpillar_shape() {
        let c = caterpillar(4, 3);
        assert_eq!(c.order(), 16);
        assert_eq!(c.gaifman().num_edges(), 3 + 12);
        assert!(c.gaifman().is_connected());
    }

    #[test]
    fn bounded_degree_respects_bound() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = bounded_degree(200, 3, 1000, &mut rng);
        assert!(g.gaifman().max_degree() <= 3);
        assert!(g.gaifman().num_edges() > 100);
    }

    #[test]
    fn gnm_edge_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gnm(100, 150, &mut rng);
        assert_eq!(g.gaifman().num_edges(), 150);
        // Requesting more edges than possible saturates.
        let h = gnm(4, 100, &mut rng);
        assert_eq!(h.gaifman().num_edges(), 6);
    }

    #[test]
    fn thinned_grid_is_subgraph() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = thinned_grid(6, 6, 0.3, &mut rng);
        let full = grid(6, 6);
        for v in 0..t.order() {
            for &w in t.gaifman().neighbors(v) {
                assert!(full.gaifman().has_edge(v, w));
            }
        }
    }
}
