//! Epoch-to-epoch migration of memoised cl-term values.
//!
//! By Hanf locality (Lemma 6.1 / Remark 6.3), the value `u^A[a]` of a
//! basic cl-term depends only on the exploration-radius ball `N_R(a)`.
//! When a delta commit changes tuples touching elements `D`, the only
//! elements whose value can differ between the epochs are those within
//! distance `R` of `D` *in either the old or the new Gaifman graph* (a
//! deleted edge can shrink balls, an inserted one grow them — the union
//! covers both directions). [`migrate_cache`] therefore carries every
//! cached value vector of the old snapshot forward to the new one by
//! cloning it and recomputing just the dirty-ball entries, instead of
//! letting the whole working set go cold on every update.
//!
//! Migration is purely additive: entries are *inserted* under the new
//! epoch's fingerprint while the old epoch's entries stay readable, so
//! in-flight readers pinned to the old snapshot keep their hits. The
//! caller retires the old epoch with [`TermCache::evict_structure`] once
//! no reader can reference it.

use foc_logic::Predicates;
use foc_structures::{BfsScratch, FxHashMap, Structure};

use crate::cache::TermCache;
use crate::error::Result;
use crate::local_eval::LocalEvaluator;

/// What a migration did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Cached vectors carried forward to the new epoch.
    pub migrated: usize,
    /// Vector entries recomputed (dirty-ball elements, summed over
    /// migrated terms).
    pub recomputed: usize,
    /// Vectors dropped instead of migrated (evaluation tripped a guard
    /// or the universe changed shape).
    pub dropped: usize,
}

/// Carries every value vector memoised for `old` forward to `new`,
/// recomputing only entries within each term's exploration radius of
/// `touched` (in the union of both Gaifman graphs). Entries that fail to
/// recompute are dropped — never inserted wrong.
///
/// `touched` is the dirty element set of the commit(s) separating the
/// snapshots (`CommitInfo::touched` from `foc-structures`).
pub fn migrate_cache(
    cache: &TermCache,
    old: &Structure,
    new: &Structure,
    touched: &[u32],
    preds: &Predicates,
) -> MigrationStats {
    let mut stats = MigrationStats::default();
    if old.order() != new.order() || old.fingerprint() == new.fingerprint() {
        return stats;
    }
    let entries = cache.entries_for(old.fingerprint());
    if entries.is_empty() {
        return stats;
    }
    let mut scratch = BfsScratch::new();
    // Terms sharing an exploration radius share a dirty set: two BFS
    // (old and new graph) per distinct radius, not per term.
    let mut dirty_by_radius: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    let mut lev = LocalEvaluator::new(new, preds);
    for (term, vals) in entries {
        if vals.len() != new.order() as usize {
            stats.dropped += 1;
            continue;
        }
        let radius = u32::try_from(LocalEvaluator::exploration_radius(&term)).unwrap_or(u32::MAX);
        let dirty = dirty_by_radius
            .entry(radius)
            .or_insert_with(|| dirty_set(old, new, touched, radius, &mut scratch));
        match patch_vector(&mut lev, &term, &vals, dirty) {
            Ok(patched) => {
                cache.insert(&term, new, None, patched);
                stats.migrated += 1;
                stats.recomputed += dirty.len();
            }
            Err(_) => stats.dropped += 1,
        }
    }
    stats
}

/// The elements within `radius` of `touched` in the old or the new
/// Gaifman graph, sorted and duplicate-free.
fn dirty_set(
    old: &Structure,
    new: &Structure,
    touched: &[u32],
    radius: u32,
    scratch: &mut BfsScratch,
) -> Vec<u32> {
    let mut dirty = old.gaifman().ball(touched, radius, scratch);
    dirty.extend(new.gaifman().ball(touched, radius, scratch));
    dirty.sort_unstable();
    dirty.dedup();
    dirty
}

fn patch_vector(
    lev: &mut LocalEvaluator<'_>,
    term: &crate::clterm::BasicClTerm,
    vals: &[i64],
    dirty: &[u32],
) -> Result<Vec<i64>> {
    let fresh = lev.eval_basic_for(term, Some(dirty))?;
    let mut out = vals.to_vec();
    for &a in dirty {
        out[a as usize] = fresh[a as usize];
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use foc_logic::build::{and, atom, dist_le, eq, not, v};
    use foc_logic::{Formula, Predicates};
    use foc_structures::gen::grid;
    use foc_structures::FxHashSet;
    use foc_structures::{DeltaStructure, StructureBuilder, TupleOp};

    use crate::clterm::{BasicClTerm, ClTerm};
    use crate::decompose::decompose_ground;

    fn path(n: u32) -> DeltaStructure {
        let mut b = StructureBuilder::new();
        b.declare("E", 2);
        b.ensure_universe(n);
        for w in 0..n - 1 {
            b.try_insert("E", &[w, w + 1]).unwrap();
            b.try_insert("E", &[w + 1, w]).unwrap();
        }
        DeltaStructure::new(b.finish())
    }

    /// Basic cl-terms of `#(x,y). body`.
    fn basics_of(
        body: impl Fn(foc_logic::Var, foc_logic::Var) -> Arc<Formula>,
    ) -> Vec<BasicClTerm> {
        let (x, y) = (v("x"), v("y"));
        let t = decompose_ground(&body(x, y), &[x, y]).unwrap();
        let mut out = Vec::new();
        collect_basics(&t, &mut out);
        out
    }

    /// Basic cl-terms of `#(x,y). ¬E(x,y) ∧ x≠y` (a genuine polynomial).
    fn test_basics() -> Vec<BasicClTerm> {
        basics_of(|x, y| and(not(atom("E", [x, y])), not(eq(x, y))))
    }

    fn collect_basics(t: &ClTerm, out: &mut Vec<BasicClTerm>) {
        match t {
            ClTerm::Basic(b) => out.push((**b).clone()),
            ClTerm::Add(ts) | ClTerm::Mul(ts) => ts.iter().for_each(|s| collect_basics(s, out)),
            ClTerm::Int(_) => {}
        }
    }

    /// Fills `cache` with every term's full vector at `s`.
    fn warm(cache: &TermCache, s: &Structure, basics: &[BasicClTerm]) {
        let preds = Predicates::standard();
        let mut lev = LocalEvaluator::new(s, &preds);
        for b in basics {
            let vals = lev.eval_basic_all(b).unwrap();
            cache.insert(b, s, None, vals);
        }
    }

    /// Every term's cached vector at `s` equals a fresh evaluation.
    fn assert_fresh(cache: &TermCache, s: &Structure, basics: &[BasicClTerm]) {
        let preds = Predicates::standard();
        let mut lev = LocalEvaluator::new(s, &preds);
        for b in basics {
            let migrated = cache.get(b, s, None).expect("entry migrated");
            let fresh = lev.eval_basic_all(b).unwrap();
            assert_eq!(*migrated, fresh, "term {b:?}");
        }
    }

    #[test]
    fn migration_matches_fresh_evaluation() {
        let preds = Predicates::standard();
        let mut d = path(12);
        let old = d.snapshot();
        old.gaifman();
        let cache = TermCache::default();
        // Two inputs: a polynomial of atoms and the basic terms of
        // `dist(x,y) <= 2`. Together they span several exploration
        // radii, some shared by more than one term, which exercises the
        // per-radius dirty sets.
        let mut basics = test_basics();
        basics.extend(basics_of(|x, y| dist_le(x, y, 2)));
        let radii: FxHashSet<u64> = basics
            .iter()
            .map(LocalEvaluator::exploration_radius)
            .collect();
        assert!(
            1 < radii.len() && radii.len() < basics.len(),
            "radii {radii:?} of {} terms",
            basics.len()
        );
        warm(&cache, &old, &basics);
        let info = d
            .apply(&[TupleOp::insert("E", &[3, 7]), TupleOp::insert("E", &[7, 3])])
            .unwrap();
        let new = d.snapshot();
        let stats = migrate_cache(&cache, &old, &new, &info.touched, &preds);
        assert_eq!(stats.migrated, basics.len());
        assert_eq!(stats.dropped, 0);
        // Migrated vectors must equal a from-scratch evaluation, and only
        // dirty-ball entries may have been recomputed.
        assert!(stats.recomputed < basics.len() * new.order() as usize);
        assert_fresh(&cache, &new, &basics);
        // Old-epoch entries stay readable until explicitly retired.
        for b in &basics {
            assert!(cache.get(b, &old, None).is_some());
        }
        let evicted = cache.evict_structure(old.fingerprint());
        assert_eq!(evicted, basics.len() as u64);
        assert!(cache.get(&basics[0], &old, None).is_none());
        assert!(cache.get(&basics[0], &new, None).is_some());
    }

    #[test]
    fn affected_set_is_local() {
        // On a 20x20 grid, one inserted edge between opposite corners
        // must recompute far fewer entries per term than the universe.
        let preds = Predicates::standard();
        let mut d = DeltaStructure::new(grid(20, 20));
        let old = d.snapshot();
        let cache = TermCache::default();
        let basics = basics_of(|x, y| atom("E", [x, y]));
        warm(&cache, &old, &basics);
        let info = d
            .apply(&[
                TupleOp::insert("E", &[0, 399]),
                TupleOp::insert("E", &[399, 0]),
            ])
            .unwrap();
        let new = d.snapshot();
        let stats = migrate_cache(&cache, &old, &new, &info.touched, &preds);
        assert_eq!(stats.migrated, basics.len());
        assert!(
            stats.recomputed < 100 * stats.migrated,
            "recomputed {} entries over {} terms of 400 elements — change is not local",
            stats.recomputed,
            stats.migrated
        );
        assert_fresh(&cache, &new, &basics);
    }

    #[test]
    fn ineffective_commit_leaves_the_cache_untouched() {
        let preds = Predicates::standard();
        let mut d = path(6);
        let old = d.snapshot();
        let cache = TermCache::default();
        let basics = test_basics();
        warm(&cache, &old, &basics);
        let info = d.apply(&[TupleOp::delete("E", &[0, 5])]).unwrap();
        assert_eq!(info.changed, 0, "the edge was absent");
        let new = d.snapshot();
        let stats = migrate_cache(&cache, &old, &new, &info.touched, &preds);
        assert_eq!(stats, MigrationStats::default());
        assert_eq!(cache.len(), basics.len());
        assert_fresh(&cache, &new, &basics);
    }

    #[test]
    fn reverted_content_cannot_resurrect_stale_entries() {
        // Regression for the epoch-folded fingerprint: a commit sequence
        // that restores the original tuples still yields a *different*
        // fingerprint, so a cache warmed at epoch 0 can never answer for
        // the epoch-2 snapshot by content coincidence — every read of
        // the new snapshot goes through migration or a recompute.
        let mut d = path(8);
        let old = d.snapshot();
        let cache = TermCache::default();
        let basics = test_basics();
        warm(&cache, &old, &basics);
        d.apply(&[TupleOp::insert("E", &[0, 5]), TupleOp::insert("E", &[5, 0])])
            .unwrap();
        d.apply(&[TupleOp::delete("E", &[0, 5]), TupleOp::delete("E", &[5, 0])])
            .unwrap();
        let new = d.snapshot();
        assert_eq!(new.size(), old.size(), "content reverted");
        assert_ne!(
            old.fingerprint(),
            new.fingerprint(),
            "epochs must key apart"
        );
        for b in &basics {
            assert!(
                cache.get(b, &new, None).is_none(),
                "stale epoch-0 entry served for the epoch-2 snapshot"
            );
        }
    }

    #[test]
    fn migration_skips_when_nothing_cached() {
        let preds = Predicates::standard();
        let mut d = path(6);
        let old = d.snapshot();
        let cache = TermCache::default();
        let info = d.apply(&[TupleOp::delete("E", &[0, 1])]).unwrap();
        let stats = migrate_cache(&cache, &old, &d.snapshot(), &info.touched, &preds);
        assert_eq!(stats, MigrationStats::default());
    }
}
