//! Finite relational structures (databases), Section 2: universes,
//! relations, Gaifman graphs, induced substructures, expansions, and
//! disjoint unions.

use std::sync::{Arc, OnceLock};

use foc_logic::Symbol;

use crate::graph::Graph;
use crate::hash::FxHashMap;
use crate::signature::{RelDecl, Signature};

/// A stored relation: fixed arity, rows flattened into one vector, sorted
/// lexicographically and deduplicated, enabling `O(log n)` membership.
#[derive(Debug, Clone)]
pub struct Relation {
    arity: usize,
    nrows: usize,
    data: Vec<u32>,
    /// Lazily built per-position indexes: `indexes[pos][value]` lists the
    /// row ids whose `pos`-th component equals `value`. Shared across
    /// clones (the relation data is immutable).
    #[allow(clippy::type_complexity)]
    indexes: std::sync::OnceLock<std::sync::Arc<Vec<FxHashMap<u32, Vec<u32>>>>>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity && self.data == other.data
    }
}
impl Eq for Relation {}

impl Relation {
    pub(crate) fn from_rows(arity: usize, mut rows: Vec<Vec<u32>>) -> Relation {
        rows.iter()
            .for_each(|r| assert_eq!(r.len(), arity, "row arity mismatch"));
        rows.sort_unstable();
        rows.dedup();
        let nrows = rows.len();
        let mut data = Vec::with_capacity(nrows * arity);
        for r in rows {
            data.extend_from_slice(&r);
        }
        Relation {
            arity,
            nrows,
            data,
            indexes: std::sync::OnceLock::new(),
        }
    }

    /// Builds a relation from already-sorted, deduplicated flat tuple
    /// data (the delta-merge fast path: no re-sort).
    pub(crate) fn from_sorted_data(arity: usize, data: Vec<u32>) -> Relation {
        let nrows = if arity == 0 {
            // Arity 0 stores presence as `nrows ∈ {0, 1}` with empty data;
            // callers encode presence via `from_rows` instead.
            0
        } else {
            debug_assert_eq!(data.len() % arity, 0);
            data.len() / arity
        };
        debug_assert!(
            arity == 0
                || (0..nrows.saturating_sub(1))
                    .all(|i| data[i * arity..(i + 1) * arity]
                        < data[(i + 1) * arity..(i + 2) * arity]),
            "delta merge must produce sorted unique rows"
        );
        Relation {
            arity,
            nrows,
            data,
            indexes: std::sync::OnceLock::new(),
        }
    }

    fn position_indexes(&self) -> &Vec<FxHashMap<u32, Vec<u32>>> {
        self.indexes.get_or_init(|| {
            let mut per_pos: Vec<FxHashMap<u32, Vec<u32>>> = vec![FxHashMap::default(); self.arity];
            for i in 0..self.nrows {
                let row = &self.data[i * self.arity..(i + 1) * self.arity];
                for (pos, &val) in row.iter().enumerate() {
                    per_pos[pos].entry(val).or_default().push(i as u32);
                }
            }
            std::sync::Arc::new(per_pos)
        })
    }

    /// Rows whose `pos`-th component equals `val`, via a lazily built
    /// per-position hash index (position 0 uses the primary sort order
    /// instead; see [`Relation::rows_with_first`]).
    pub fn rows_with_value_at(&self, pos: usize, val: u32) -> impl Iterator<Item = &[u32]> + '_ {
        assert!(pos < self.arity, "position out of range");
        let ids: &[u32] = self.position_indexes()[pos]
            .get(&val)
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        ids.iter().map(move |&i| self.row(i as usize))
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples `|R^A|`.
    pub fn len(&self) -> usize {
        self.nrows
    }

    /// `true` iff the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// The `i`-th row in lexicographic order.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.nrows).map(move |i| self.row(i))
    }

    /// Membership test by binary search.
    pub fn contains(&self, tuple: &[u32]) -> bool {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        if self.arity == 0 {
            return self.nrows == 1;
        }
        let mut lo = 0usize;
        let mut hi = self.nrows;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.row(mid).cmp(tuple) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Rows whose first component equals `first` (contiguous by sorting).
    pub fn rows_with_first(&self, first: u32) -> impl Iterator<Item = &[u32]> + '_ {
        let lo = self.partition_point_first(first, false);
        let hi = self.partition_point_first(first, true);
        (lo..hi).map(move |i| self.row(i))
    }

    fn partition_point_first(&self, first: u32, upper: bool) -> usize {
        let mut lo = 0usize;
        let mut hi = self.nrows;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let v = self.row(mid)[0];
            let go_right = if upper { v <= first } else { v < first };
            if go_right {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// A finite σ-structure `A` with universe `{0, …, n−1}`.
///
/// The Gaifman graph is built lazily and cached; structures are otherwise
/// immutable, so they can be shared freely.
#[derive(Debug, Clone)]
pub struct Structure {
    sig: Arc<Signature>,
    n: u32,
    /// Relations behind `Arc` so delta commits can share untouched
    /// relations between consecutive epoch snapshots (copy-on-write).
    rels: Vec<Arc<Relation>>,
    /// Version stamp for delta-maintained structures: `0` for plain
    /// (immutable-forever) structures, incremented by every
    /// [`crate::delta::DeltaStructure`] commit. Folded into
    /// [`Structure::fingerprint`] so cache entries keyed on one epoch can
    /// never be served for another.
    epoch: u64,
    gaifman: OnceLock<Arc<Graph>>,
    fingerprint: OnceLock<u64>,
}

impl Structure {
    /// Creates a structure from per-relation row lists (parallel to the
    /// signature's declarations). Panics on arity mismatches or elements
    /// outside the universe — structure construction is a validation
    /// boundary.
    pub fn new(sig: Arc<Signature>, n: u32, rows: Vec<Vec<Vec<u32>>>) -> Structure {
        assert!(n >= 1, "the paper requires non-empty universes");
        assert_eq!(
            rows.len(),
            sig.len(),
            "one row list per relation symbol required"
        );
        let rels: Vec<Arc<Relation>> = sig
            .rels()
            .iter()
            .zip(rows)
            .map(|(decl, rs)| {
                for row in &rs {
                    for &e in row {
                        assert!(e < n, "element {e} outside universe of size {n}");
                    }
                }
                Arc::new(Relation::from_rows(decl.arity, rs))
            })
            .collect();
        Structure {
            sig,
            n,
            rels,
            epoch: 0,
            gaifman: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Assembles an epoch snapshot from pre-built parts (delta commits).
    /// `gaifman`, when provided, must be the Gaifman graph of `rels`.
    pub(crate) fn from_parts(
        sig: Arc<Signature>,
        n: u32,
        rels: Vec<Arc<Relation>>,
        epoch: u64,
        gaifman: Option<Arc<Graph>>,
    ) -> Structure {
        let out = Structure {
            sig,
            n,
            rels,
            epoch,
            gaifman: OnceLock::new(),
            fingerprint: OnceLock::new(),
        };
        if let Some(g) = gaifman {
            let _ = out.gaifman.set(g);
        }
        out
    }

    /// Shared handles to the relations (delta commits clone these to
    /// share untouched relations across epochs).
    pub(crate) fn rel_arcs(&self) -> &[Arc<Relation>] {
        &self.rels
    }

    /// The epoch stamp: `0` for plain structures, the commit counter for
    /// snapshots published by a [`crate::delta::DeltaStructure`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The Gaifman graph if it has already been materialised (delta
    /// commits reuse or patch it without forcing a lazy build).
    pub(crate) fn gaifman_if_built(&self) -> Option<Arc<Graph>> {
        self.gaifman.get().cloned()
    }

    /// The signature σ.
    pub fn signature(&self) -> &Arc<Signature> {
        &self.sig
    }

    /// The order `|A|` (universe size).
    pub fn order(&self) -> u32 {
        self.n
    }

    /// The universe `0..n` as an iterator.
    pub fn universe(&self) -> std::ops::Range<u32> {
        0..self.n
    }

    /// The size `‖A‖ = |A| + Σ_R |R^A|`.
    pub fn size(&self) -> usize {
        self.n as usize + self.rels.iter().map(|r| r.len()).sum::<usize>()
    }

    /// Approximate resident footprint in bytes: relation tuple data plus
    /// (when already materialised) the cached Gaifman graph. Used by
    /// memory-watermark accounting — an estimate of heap occupancy, not
    /// an exact allocator measurement.
    pub fn resident_bytes(&self) -> u64 {
        let rels: u64 = self
            .rels
            .iter()
            .map(|r| (r.len() * r.arity().max(1) * 4) as u64)
            .sum();
        let gaifman: u64 = self
            .gaifman
            .get()
            .map(|g| ((self.n as usize + 1 + 2 * g.num_edges()) * 4) as u64)
            .unwrap_or(0);
        rels + gaifman
    }

    /// The relation for a declared symbol; `None` if undeclared.
    pub fn relation(&self, name: Symbol) -> Option<&Relation> {
        self.sig.index_of(name).map(|i| &*self.rels[i])
    }

    /// The relation at a dense signature index.
    pub fn relation_at(&self, idx: usize) -> &Relation {
        &self.rels[idx]
    }

    /// Membership in a named relation. Panics on undeclared symbols (the
    /// evaluator validates formulas against the signature first).
    pub fn holds(&self, name: Symbol, tuple: &[u32]) -> bool {
        match self.relation(name) {
            Some(r) => r.contains(tuple),
            None => panic!("relation {name} not in signature {:?}", self.sig),
        }
    }

    /// The Gaifman graph `G_A` (built on first use, cached).
    pub fn gaifman(&self) -> &Graph {
        self.gaifman.get_or_init(|| {
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for rel in &self.rels {
                if rel.arity() < 2 {
                    continue;
                }
                for row in rel.rows() {
                    for i in 0..row.len() {
                        for j in (i + 1)..row.len() {
                            if row[i] != row[j] {
                                edges.push((row[i], row[j]));
                            }
                        }
                    }
                }
            }
            Arc::new(Graph::from_edges(self.n, &edges))
        })
    }

    /// A content fingerprint of the structure: a 64-bit hash of the
    /// universe size, the signature, every relation's sorted tuple
    /// data, *and the epoch stamp* (built on first use, cached). Two
    /// structures with equal fingerprints are, up to hash collision, the
    /// *same database at the same version*, which is what lets the
    /// evaluators memoise cl-term values across identical cover clusters
    /// while delta-maintained snapshots can never alias each other's
    /// cache entries across updates (epochs differ, so fingerprints
    /// differ even when an insert/delete pair restores the tuple data).
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            use std::hash::{Hash, Hasher};
            let mut h = crate::hash::FxHasher::default();
            h.write_u64(self.epoch);
            h.write_u32(self.n);
            h.write_usize(self.rels.len());
            for (decl, rel) in self.sig.rels().iter().zip(&self.rels) {
                decl.name.hash(&mut h);
                h.write_usize(decl.arity);
                h.write_usize(rel.len());
                for &v in &rel.data {
                    h.write_u32(v);
                }
            }
            h.finish()
        })
    }

    /// The σ′-expansion of this structure with extra relations (Section 2).
    /// The existing relations are shared by clone of their sorted data.
    pub fn expand(&self, extra: Vec<(RelDecl, Vec<Vec<u32>>)>) -> Structure {
        let (decls, rows): (Vec<RelDecl>, Vec<Vec<Vec<u32>>>) = extra.into_iter().unzip();
        let sig = self.sig.extended(decls.clone());
        let mut rels = self.rels.clone();
        for (decl, rs) in decls.into_iter().zip(rows) {
            for row in &rs {
                for &e in row {
                    assert!(e < self.n, "element {e} outside universe");
                }
            }
            rels.push(Arc::new(Relation::from_rows(decl.arity, rs)));
        }
        let out = Structure {
            sig,
            n: self.n,
            rels,
            epoch: self.epoch,
            gaifman: OnceLock::new(),
            fingerprint: OnceLock::new(),
        };
        // Unary/0-ary expansions do not change the Gaifman graph; reuse it
        // if it was already built and every added relation has arity ≤ 1.
        if let Some(g) = self.gaifman.get() {
            if out.sig.rels()[self.sig.len()..]
                .iter()
                .all(|d| d.arity <= 1)
            {
                let _ = out.gaifman.set(g.clone());
            }
        }
        out
    }

    /// The σ-reduct: drops all relations not in `sub` (which must be a
    /// subset of the current signature).
    pub fn reduct(&self, sub: Arc<Signature>) -> Structure {
        assert!(
            self.sig.contains_signature(&sub),
            "reduct target not a sub-signature"
        );
        let rels = sub
            .rels()
            .iter()
            .map(|d| {
                let i = self
                    .sig
                    .index_of(d.name)
                    .expect("checked by contains_signature");
                self.rels[i].clone()
            })
            .collect();
        Structure {
            sig: sub,
            n: self.n,
            rels,
            epoch: self.epoch,
            gaifman: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// The induced substructure `A[B]` on a sorted set of elements, with
    /// the mapping back to original element ids (`back[new] = old`).
    ///
    /// Runs in time proportional to the rows *starting* in `B` (plus a
    /// binary search per element and relation), not to `‖A‖`: every kept
    /// row starts with an element of `B`, so it is found by
    /// [`Relation::rows_with_first`]. The renumbering is monotone, so the
    /// kept rows come out already sorted and unique.
    pub fn induced(&self, elems: &[u32]) -> InducedSubstructure {
        debug_assert!(
            elems.windows(2).all(|w| w[0] < w[1]),
            "elems must be sorted+unique"
        );
        assert!(
            !elems.is_empty(),
            "induced substructure needs a non-empty set"
        );
        let mut fwd: FxHashMap<u32, u32> = FxHashMap::default();
        for (new, &old) in elems.iter().enumerate() {
            fwd.insert(old, new as u32);
        }
        let rels: Vec<Arc<Relation>> = self
            .rels
            .iter()
            .map(|rel| {
                if rel.arity() == 0 {
                    // A 0-ary relation mentions no element: kept as is.
                    return rel.clone();
                }
                let mut data = Vec::new();
                for &first in elems {
                    'rows: for row in rel.rows_with_first(first) {
                        let start = data.len();
                        for &e in row {
                            match fwd.get(&e) {
                                Some(&ne) => data.push(ne),
                                None => {
                                    data.truncate(start);
                                    continue 'rows;
                                }
                            }
                        }
                    }
                }
                Arc::new(Relation::from_sorted_data(rel.arity(), data))
            })
            .collect();
        let structure = Structure::from_parts(self.sig.clone(), elems.len() as u32, rels, 0, None);
        InducedSubstructure {
            structure,
            back: elems.to_vec(),
            fwd,
        }
    }

    /// The disjoint union of two structures over the same signature
    /// (elements of `b` are shifted by `a.order()`).
    pub fn disjoint_union(a: &Structure, b: &Structure) -> Structure {
        assert_eq!(a.sig, b.sig, "disjoint union requires equal signatures");
        let shift = a.n;
        let rels: Vec<Vec<Vec<u32>>> = a
            .rels
            .iter()
            .zip(&b.rels)
            .map(|(ra, rb)| {
                let mut rows: Vec<Vec<u32>> = ra.rows().map(|r| r.to_vec()).collect();
                rows.extend(
                    rb.rows()
                        .map(|r| r.iter().map(|&e| e + shift).collect::<Vec<_>>()),
                );
                rows
            })
            .collect();
        Structure::new(a.sig.clone(), a.n + b.n, rels)
    }
}

/// An induced substructure `A[B]` with its element renumbering.
#[derive(Debug, Clone)]
pub struct InducedSubstructure {
    /// The substructure, with universe `0..|B|`.
    pub structure: Structure,
    /// `back[new] = old`: new element ids to original ids.
    pub back: Vec<u32>,
    /// `fwd[old] = new`: original ids to new ids (only for elements of B).
    pub fwd: FxHashMap<u32, u32>,
}

/// A rejected mutation: what went wrong when a tuple insert/delete was
/// validated against a signature and universe. Returned by
/// [`StructureBuilder::try_insert`] and
/// [`crate::delta::DeltaStructure::apply`] instead of panicking, so
/// servers can turn malformed updates into structured error frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationError {
    /// The named relation is not declared in the signature.
    UndeclaredRelation {
        /// The offending relation name.
        name: String,
    },
    /// The tuple's length does not match the relation's declared arity.
    ArityMismatch {
        /// The relation name.
        relation: String,
        /// The declared arity.
        expected: usize,
        /// The tuple length supplied.
        got: usize,
    },
    /// A tuple component lies outside the (fixed) universe `0..order`.
    OutOfUniverse {
        /// The offending element.
        element: u32,
        /// The universe size.
        order: u32,
    },
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::UndeclaredRelation { name } => {
                write!(f, "relation {name} not declared")
            }
            MutationError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation {relation} has arity {expected}, tuple has {got} components"
            ),
            MutationError::OutOfUniverse { element, order } => {
                write!(f, "element {element} outside universe of size {order}")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// Incremental construction of a structure: declare relations, insert
/// tuples in any order, then [`StructureBuilder::finish`].
#[derive(Debug, Default)]
pub struct StructureBuilder {
    decls: Vec<RelDecl>,
    /// Per relation, its inserted rows back to back.
    data: Vec<Vec<u32>>,
    /// Per relation, whether anything was inserted (the only content an
    /// arity-0 relation has).
    inserted: Vec<bool>,
    index: FxHashMap<Symbol, usize>,
    n: u32,
}

impl StructureBuilder {
    /// An empty builder.
    pub fn new() -> StructureBuilder {
        StructureBuilder::default()
    }

    /// Declares a relation; returns its dense index.
    pub fn declare(&mut self, name: &str, arity: usize) -> usize {
        let sym = Symbol::new(name);
        assert!(!self.index.contains_key(&sym), "duplicate relation {name}");
        let idx = self.decls.len();
        self.decls.push(RelDecl { name: sym, arity });
        self.data.push(Vec::new());
        self.inserted.push(false);
        self.index.insert(sym, idx);
        idx
    }

    /// Ensures the universe has at least `n` elements.
    pub fn ensure_universe(&mut self, n: u32) {
        self.n = self.n.max(n);
    }

    /// Allocates and returns a fresh element.
    pub fn add_element(&mut self) -> u32 {
        let e = self.n;
        self.n += 1;
        e
    }

    /// Inserts a tuple into a declared relation (by name), reporting
    /// undeclared relations and arity mismatches as typed errors. The
    /// builder's universe auto-grows to cover inserted elements, so
    /// [`MutationError::OutOfUniverse`] is never raised here (it is the
    /// fixed-universe [`crate::delta::DeltaStructure`] that rejects
    /// out-of-range elements).
    pub fn try_insert(&mut self, name: &str, tuple: &[u32]) -> Result<(), MutationError> {
        let Some(&idx) = self.index.get(&Symbol::new(name)) else {
            return Err(MutationError::UndeclaredRelation {
                name: name.to_string(),
            });
        };
        self.try_insert_at(idx, tuple)
    }

    /// Inserts a tuple into a declared relation (by dense index),
    /// reporting arity mismatches as typed errors.
    pub fn try_insert_at(&mut self, idx: usize, tuple: &[u32]) -> Result<(), MutationError> {
        let decl = &self.decls[idx];
        if tuple.len() != decl.arity {
            return Err(MutationError::ArityMismatch {
                relation: decl.name.to_string(),
                expected: decl.arity,
                got: tuple.len(),
            });
        }
        for &e in tuple {
            self.ensure_universe(e + 1);
        }
        self.data[idx].extend_from_slice(tuple);
        self.inserted[idx] = true;
        Ok(())
    }

    /// Finalises the structure (sorts, dedups, validates).
    pub fn finish(self) -> Structure {
        let rels = self
            .decls
            .iter()
            .zip(self.data)
            .zip(self.inserted)
            .map(|((decl, data), inserted)| {
                Arc::new(match decl.arity {
                    0 => Relation::from_rows(0, if inserted { vec![vec![]] } else { vec![] }),
                    arity => {
                        let mut rows: Vec<&[u32]> = data.chunks_exact(arity).collect();
                        rows.sort_unstable();
                        rows.dedup();
                        Relation::from_sorted_data(arity, rows.concat())
                    }
                })
            })
            .collect();
        Structure::from_parts(Signature::new(self.decls), self.n.max(1), rels, 0, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_structure(n: u32, edges: &[(u32, u32)]) -> Structure {
        let mut b = StructureBuilder::new();
        b.declare("E", 2);
        b.ensure_universe(n);
        for &(u, v) in edges {
            b.try_insert("E", &[u, v]).unwrap();
            b.try_insert("E", &[v, u]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn relation_contains_and_rows() {
        let s = edge_structure(4, &[(0, 1), (1, 2)]);
        let e = Symbol::new("E");
        assert!(s.holds(e, &[0, 1]));
        assert!(s.holds(e, &[1, 0]));
        assert!(!s.holds(e, &[0, 2]));
        assert_eq!(s.relation(e).unwrap().len(), 4);
        assert_eq!(s.size(), 4 + 4);
    }

    #[test]
    fn rows_with_value_at_uses_position_index() {
        let s = edge_structure(5, &[(1, 0), (2, 0), (3, 0), (1, 4)]);
        let r = s.relation(Symbol::new("E")).unwrap();
        // All rows whose second component is 0: (1,0), (2,0), (3,0).
        let firsts: Vec<u32> = r.rows_with_value_at(1, 0).map(|row| row[0]).collect();
        assert_eq!(firsts.len(), 3);
        assert!(firsts.contains(&1) && firsts.contains(&2) && firsts.contains(&3));
        // Missing values yield empty iterators.
        assert_eq!(r.rows_with_value_at(0, 99).count(), 0);
        // Position 0 agrees with the primary order.
        let via_index: Vec<Vec<u32>> = r.rows_with_value_at(0, 1).map(|row| row.to_vec()).collect();
        let via_sorted: Vec<Vec<u32>> = r.rows_with_first(1).map(|row| row.to_vec()).collect();
        assert_eq!(via_index, via_sorted);
    }

    #[test]
    fn rows_with_first_groups() {
        let s = edge_structure(4, &[(1, 0), (1, 2), (1, 3)]);
        let r = s.relation(Symbol::new("E")).unwrap();
        let outs: Vec<u32> = r.rows_with_first(1).map(|row| row[1]).collect();
        assert_eq!(outs, vec![0, 2, 3]);
        assert_eq!(r.rows_with_first(0).count(), 1);
    }

    #[test]
    fn gaifman_graph_of_edges() {
        let s = edge_structure(5, &[(0, 1), (1, 2), (3, 4)]);
        let g = s.gaifman();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn gaifman_of_ternary_relation_is_pairwise() {
        let mut b = StructureBuilder::new();
        b.declare("T", 3);
        b.try_insert("T", &[0, 1, 2]).unwrap();
        let s = b.finish();
        let g = s.gaifman();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(0, 2));
    }

    #[test]
    fn zero_ary_relations() {
        let mut b = StructureBuilder::new();
        b.declare("Flag", 0);
        b.ensure_universe(2);
        let s0 = b.finish();
        assert!(!s0.holds(Symbol::new("Flag"), &[]));
        let mut b = StructureBuilder::new();
        b.declare("Flag", 0);
        b.ensure_universe(2);
        b.try_insert("Flag", &[]).unwrap();
        let s1 = b.finish();
        assert!(s1.holds(Symbol::new("Flag"), &[]));
    }

    #[test]
    fn induced_substructure_renumbers() {
        let s = edge_structure(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let ind = s.induced(&[1, 2, 4]);
        assert_eq!(ind.structure.order(), 3);
        // Only the edge (1,2) survives, renumbered to (0,1).
        let e = Symbol::new("E");
        assert!(ind.structure.holds(e, &[0, 1]));
        assert!(ind.structure.holds(e, &[1, 0]));
        assert_eq!(ind.structure.relation(e).unwrap().len(), 2);
        assert_eq!(ind.back, vec![1, 2, 4]);
        assert_eq!(ind.fwd.get(&4), Some(&2));
    }

    /// The reference definition of `A[B]`: filter every row of every
    /// relation, keep those inside `B`, renumber.
    fn induced_by_filter(s: &Structure, elems: &[u32]) -> Structure {
        let fwd: FxHashMap<u32, u32> = elems
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new as u32))
            .collect();
        let rows = (0..s.signature().len())
            .map(|i| {
                s.relation_at(i)
                    .rows()
                    .filter_map(|row| {
                        row.iter()
                            .map(|e| fwd.get(e).copied())
                            .collect::<Option<Vec<u32>>>()
                    })
                    .collect()
            })
            .collect();
        Structure::new(s.signature().clone(), elems.len() as u32, rows)
    }

    #[test]
    fn induced_matches_whole_relation_filter() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for case in 0..40u32 {
            let n = 2 + case % 9;
            let mut b = StructureBuilder::new();
            for (name, arity) in [("F", 0), ("P", 1), ("E", 2), ("T", 3)] {
                b.declare(name, arity);
            }
            b.ensure_universe(n);
            if case % 2 == 0 {
                b.try_insert("F", &[]).unwrap();
            }
            for _ in 0..3 * n {
                let r = |rng: &mut StdRng| rng.gen_range(0..n);
                b.try_insert("P", &[r(&mut rng)]).unwrap();
                let u = r(&mut rng);
                // Self-loops E(x,x) and repeated ternary positions too.
                let v = if rng.gen_bool(0.2) { u } else { r(&mut rng) };
                b.try_insert("E", &[u, v]).unwrap();
                b.try_insert("T", &[u, r(&mut rng), v]).unwrap();
            }
            let s = b.finish();
            // Random subsets: rows whose first element is outside, and
            // rows that start inside but leave the set, both occur.
            let elems: Vec<u32> = (0..n).filter(|_| rng.gen_bool(0.6)).collect();
            let elems = if elems.is_empty() { vec![n - 1] } else { elems };
            let got = s.induced(&elems);
            let want = induced_by_filter(&s, &elems);
            for i in 0..s.signature().len() {
                assert_eq!(
                    got.structure.relation_at(i),
                    want.relation_at(i),
                    "relation {i} on case {case}, elems {elems:?}"
                );
            }
            assert_eq!(got.structure.order(), want.order());
            assert_eq!(got.structure.fingerprint(), want.fingerprint());
            assert_eq!(got.back, elems);
        }
    }

    #[test]
    fn expansion_preserves_and_extends() {
        let s = edge_structure(3, &[(0, 1)]);
        let exp = s.expand(vec![(RelDecl::new("X1", 1), vec![vec![2]])]);
        assert!(exp.holds(Symbol::new("X1"), &[2]));
        assert!(exp.holds(Symbol::new("E"), &[0, 1]));
        assert_eq!(exp.order(), 3);
        // Reduct drops it again.
        let red = exp.reduct(s.signature().clone());
        assert!(red.relation(Symbol::new("X1")).is_none());
    }

    #[test]
    fn disjoint_union_shifts() {
        let a = edge_structure(2, &[(0, 1)]);
        let b = edge_structure(3, &[(0, 2)]);
        let u = Structure::disjoint_union(&a, &b);
        assert_eq!(u.order(), 5);
        let e = Symbol::new("E");
        assert!(u.holds(e, &[0, 1]));
        assert!(u.holds(e, &[2, 4]));
        assert!(!u.holds(e, &[1, 2]));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_range_elements_panic() {
        let mut b = StructureBuilder::new();
        b.declare("R", 1);
        let sig = Signature::new(vec![RelDecl::new("R", 1)]);
        let _ = b; // builder unused beyond declaration
        Structure::new(sig, 1, vec![vec![vec![5]]]);
    }
}
