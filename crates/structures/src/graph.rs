//! Undirected graphs in CSR form, BFS utilities, distances, balls, and
//! connected components — everything Section 2 needs of Gaifman graphs.

/// An undirected graph with vertex set `0..n` in compressed sparse row
/// form. Adjacency lists are sorted and deduplicated; no self-loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u32>,
    adj: Vec<u32>,
}

impl Graph {
    /// Builds a graph from an edge list (pairs are symmetrised, self-loops
    /// dropped, duplicates removed). A counting sort places each directed
    /// pair under its source; only the short adjacency lists are sorted.
    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Graph {
        let mut offsets = vec![0u32; n as usize + 1];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
            if u != v {
                offsets[u as usize + 1] += 1;
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0u32; offsets[n as usize] as usize];
        for &(u, v) in edges {
            if u != v {
                for (a, b) in [(u, v), (v, u)] {
                    adj[cursor[a as usize] as usize] = b;
                    cursor[a as usize] += 1;
                }
            }
        }
        // Sort and deduplicate each list, compacting in place (the write
        // position never passes the read position).
        let mut w = 0usize;
        for v in 0..n as usize {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            adj[lo..hi].sort_unstable();
            offsets[v] = w as u32;
            for i in lo..hi {
                if i == lo || adj[i] != adj[i - 1] {
                    adj[w] = adj[i];
                    w += 1;
                }
            }
        }
        offsets[n as usize] = w as u32;
        adj.truncate(w);
        adj.shrink_to_fit();
        Graph { offsets, adj }
    }

    /// The graph with some undirected edges inserted or removed, copying
    /// the untouched adjacency lists wholesale. `changes` lists each
    /// change in both directions as `(u, v, insert)`, sorted by `(u, v)`
    /// and unique, with `u ≠ v`; inserting a present or removing an
    /// absent edge is a no-op.
    pub fn spliced(&self, changes: &[(u32, u32, bool)]) -> Graph {
        let n = self.n();
        let mut offsets = Vec::with_capacity(n as usize + 1);
        offsets.push(0u32);
        let mut adj = Vec::with_capacity(self.adj.len() + changes.len());
        let mut c = 0;
        let mut v = 0u32;
        while v < n {
            let next = changes.get(c).map_or(n, |ch| ch.0);
            if next > v {
                // Vertices v..next are untouched: one copy, shifted offsets.
                let lo = self.offsets[v as usize];
                let hi = self.offsets[next as usize];
                let start = adj.len() as u32;
                adj.extend_from_slice(&self.adj[lo as usize..hi as usize]);
                offsets.extend(
                    self.offsets[v as usize + 1..=next as usize]
                        .iter()
                        .map(|&o| o - lo + start),
                );
                v = next;
                continue;
            }
            let old = self.neighbors(v);
            let mut i = 0;
            while let Some(&(_, w, insert)) = changes.get(c).filter(|ch| ch.0 == v) {
                while i < old.len() && old[i] < w {
                    adj.push(old[i]);
                    i += 1;
                }
                if i < old.len() && old[i] == w {
                    i += 1;
                }
                if insert {
                    adj.push(w);
                }
                c += 1;
            }
            adj.extend_from_slice(&old[i..]);
            offsets.push(adj.len() as u32);
            v += 1;
        }
        Graph { offsets, adj }
    }

    /// Number of vertices.
    pub fn n(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// The size `‖G‖ = |V| + |E|`.
    pub fn size(&self) -> usize {
        self.n() as usize + self.num_edges()
    }

    /// The sorted neighbour list of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let a = self.offsets[v as usize] as usize;
        let b = self.offsets[v as usize + 1] as usize;
        &self.adj[a..b]
    }

    /// The degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// The maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// `true` iff `{u, v}` is an edge.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The r-ball `N_r(centers)` as a sorted vector, using `scratch` to
    /// avoid allocation across calls.
    pub fn ball(&self, centers: &[u32], r: u32, scratch: &mut BfsScratch) -> Vec<u32> {
        let mut out = Vec::new();
        self.ball_into(centers, r, scratch, &mut out);
        out
    }

    /// Like [`Graph::ball`], writing into `out` (cleared first).
    pub fn ball_into(&self, centers: &[u32], r: u32, scratch: &mut BfsScratch, out: &mut Vec<u32>) {
        out.clear();
        scratch.reset(self.n());
        let mut frontier: Vec<u32> = Vec::new();
        for &c in centers {
            if scratch.mark(c) {
                frontier.push(c);
                out.push(c);
            }
        }
        for _ in 0..r {
            if frontier.is_empty() {
                break;
            }
            let mut next = Vec::new();
            for &u in &frontier {
                for &w in self.neighbors(u) {
                    if scratch.mark(w) {
                        next.push(w);
                        out.push(w);
                    }
                }
            }
            frontier = next;
        }
        out.sort_unstable();
    }

    /// Bounded distance: `Some(d)` with `d = dist(a, b)` if `d ≤ cap`,
    /// `None` otherwise. Bidirectional BFS is not needed at the radii the
    /// algorithms use; plain BFS with a depth cap is linear in the ball.
    pub fn dist_bounded(&self, a: u32, b: u32, cap: u32, scratch: &mut BfsScratch) -> Option<u32> {
        if a == b {
            return Some(0);
        }
        scratch.reset(self.n());
        scratch.mark(a);
        // One queue, level by level, kept in the scratch across calls.
        let mut queue = std::mem::take(&mut scratch.queue);
        queue.clear();
        queue.push(a);
        let (mut head, mut found) = (0, None);
        'levels: for d in 1..=cap {
            let end = queue.len();
            if head == end {
                break;
            }
            while head < end {
                let u = queue[head];
                head += 1;
                for &w in self.neighbors(u) {
                    if w == b {
                        found = Some(d);
                        break 'levels;
                    }
                    if scratch.mark(w) {
                        queue.push(w);
                    }
                }
            }
        }
        scratch.queue = queue;
        found
    }

    /// `dist(a, b) ≤ d`?
    pub fn dist_le(&self, a: u32, b: u32, d: u32, scratch: &mut BfsScratch) -> bool {
        self.dist_bounded(a, b, d, scratch).is_some()
    }

    /// Connected components; returns `(component_id per vertex, count)`.
    pub fn components(&self) -> (Vec<u32>, usize) {
        let n = self.n() as usize;
        let mut comp = vec![u32::MAX; n];
        let mut count = 0usize;
        let mut stack = Vec::new();
        for s in 0..n as u32 {
            if comp[s as usize] != u32::MAX {
                continue;
            }
            comp[s as usize] = count as u32;
            stack.push(s);
            while let Some(u) = stack.pop() {
                for &w in self.neighbors(u) {
                    if comp[w as usize] == u32::MAX {
                        comp[w as usize] = count as u32;
                        stack.push(w);
                    }
                }
            }
            count += 1;
        }
        (comp, count)
    }

    /// `true` iff the graph is connected (the empty graph counts as
    /// connected).
    pub fn is_connected(&self) -> bool {
        self.n() == 0 || self.components().1 == 1
    }
}

/// Reusable BFS scratch space (stamped visited marks and a queue).
#[derive(Debug, Default, Clone)]
pub struct BfsScratch {
    stamp: u32,
    marks: Vec<u32>,
    queue: Vec<u32>,
}

impl BfsScratch {
    /// Creates scratch space (lazily sized on first use).
    pub fn new() -> BfsScratch {
        BfsScratch::default()
    }

    fn reset(&mut self, n: u32) {
        if self.marks.len() < n as usize {
            self.marks.resize(n as usize, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.marks.iter_mut().for_each(|m| *m = 0);
            self.stamp = 1;
        }
    }

    /// Marks `v`; returns `true` iff it was unmarked.
    fn mark(&mut self, v: u32) -> bool {
        let slot = &mut self.marks[v as usize];
        if *slot == self.stamp {
            false
        } else {
            *slot = self.stamp;
            true
        }
    }
}

/// Bounded BFS distances from one source, in epoch-stamped dense arrays
/// (the [`BfsScratch`] trick): refilling costs the size of the new ball,
/// not `n`, and a distance lookup is two array reads. The ball itself is
/// kept in BFS order, source first.
#[derive(Debug, Default, Clone)]
pub struct DistLayer {
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<u32>,
    ball: Vec<u32>,
}

impl DistLayer {
    /// Creates an empty layer (lazily sized on first fill).
    pub fn new() -> DistLayer {
        DistLayer::default()
    }

    /// Replaces the layer's contents with the distances from `src`, up to
    /// and including `cap`.
    pub fn fill(&mut self, g: &Graph, src: u32, cap: u32) {
        let n = g.n() as usize;
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.ball.clear();
        self.stamp[src as usize] = self.epoch;
        self.dist[src as usize] = 0;
        self.ball.push(src);
        // The ball doubles as the BFS queue.
        let mut head = 0;
        while head < self.ball.len() {
            let u = self.ball[head];
            head += 1;
            let du = self.dist[u as usize];
            if du >= cap {
                continue;
            }
            for &w in g.neighbors(u) {
                if self.stamp[w as usize] != self.epoch {
                    self.stamp[w as usize] = self.epoch;
                    self.dist[w as usize] = du + 1;
                    self.ball.push(w);
                }
            }
        }
    }

    /// `Some(dist(src, v))` if it is at most the cap of the last fill.
    pub fn get(&self, v: u32) -> Option<u32> {
        (self.stamp.get(v as usize) == Some(&self.epoch)).then(|| self.dist[v as usize])
    }

    /// The ball of the last fill, in BFS order (source first).
    pub fn ball(&self) -> &[u32] {
        &self.ball
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn csr_basics() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 2), (2, 2)]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.num_edges(), 2); // duplicate and self-loop dropped
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn counting_sort_matches_a_sorted_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let n = rng.gen_range(1..30u32);
            let edges: Vec<(u32, u32)> = (0..rng.gen_range(0..80))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let g = Graph::from_edges(n, &edges);
            for v in 0..n {
                let mut want: Vec<u32> = edges
                    .iter()
                    .filter(|(a, b)| a != b)
                    .filter_map(|&(a, b)| (a == v).then_some(b).or((b == v).then_some(a)))
                    .collect();
                want.sort_unstable();
                want.dedup();
                assert_eq!(g.neighbors(v), want.as_slice());
            }
        }
    }

    #[test]
    fn splicing_matches_a_rebuild() {
        let g = path_graph(6);
        // Drop {1,2} and {4,5}, add {0,5} and {2,4}; re-adding {0,1} is a no-op.
        let mut changes = vec![];
        for (u, v, insert) in [
            (1, 2, false),
            (4, 5, false),
            (0, 5, true),
            (2, 4, true),
            (0, 1, true),
        ] {
            changes.push((u, v, insert));
            changes.push((v, u, insert));
        }
        changes.sort_unstable();
        let want = Graph::from_edges(6, &[(0, 1), (2, 3), (3, 4), (0, 5), (2, 4)]);
        assert_eq!(g.spliced(&changes), want);
        assert_eq!(g.spliced(&[]), g);
    }

    #[test]
    fn balls_on_a_path() {
        let g = path_graph(10);
        let mut s = BfsScratch::new();
        assert_eq!(g.ball(&[5], 0, &mut s), vec![5]);
        assert_eq!(g.ball(&[5], 2, &mut s), vec![3, 4, 5, 6, 7]);
        assert_eq!(g.ball(&[0], 3, &mut s), vec![0, 1, 2, 3]);
        assert_eq!(g.ball(&[0, 9], 1, &mut s), vec![0, 1, 8, 9]);
    }

    #[test]
    fn distances_match_path_metric() {
        let g = path_graph(12);
        let mut s = BfsScratch::new();
        for a in 0..12u32 {
            for b in 0..12u32 {
                let true_d = a.abs_diff(b);
                assert_eq!(g.dist_bounded(a, b, 12, &mut s), Some(true_d));
                assert!(g.dist_le(a, b, true_d, &mut s));
                if true_d > 0 {
                    assert!(!g.dist_le(a, b, true_d - 1, &mut s));
                }
            }
        }
    }

    #[test]
    fn dist_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut s = BfsScratch::new();
        assert_eq!(g.dist_bounded(0, 3, 10, &mut s), None);
        let (comp, k) = g.components();
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[2]);
        assert!(!g.is_connected());
    }

    #[test]
    fn distances_from_cap() {
        let g = path_graph(10);
        let mut layer = DistLayer::new();
        layer.fill(&g, 0, 3);
        assert_eq!(layer.ball(), &[0, 1, 2, 3]);
        assert_eq!(layer.get(3), Some(3));
        assert_eq!(layer.get(4), None);
        // Refilling forgets the previous source's distances.
        layer.fill(&g, 9, 1);
        assert_eq!(layer.ball(), &[9, 8]);
        assert_eq!(layer.get(3), None);
        assert_eq!(layer.get(8), Some(1));
    }

    #[test]
    fn scratch_stamping_is_reusable() {
        let g = path_graph(5);
        let mut s = BfsScratch::new();
        for _ in 0..100 {
            assert_eq!(g.ball(&[2], 1, &mut s), vec![1, 2, 3]);
        }
    }
}
