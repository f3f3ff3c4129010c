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
use foc_structures::{BfsScratch, FxHashSet, Structure};

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
    let mut lev = LocalEvaluator::new(new, preds);
    for (term, vals) in entries {
        if vals.len() != new.order() as usize {
            stats.dropped += 1;
            continue;
        }
        let radius = u32::try_from(LocalEvaluator::exploration_radius(&term)).unwrap_or(u32::MAX);
        let mut affected: FxHashSet<u32> = FxHashSet::default();
        affected.extend(old.gaifman().ball(touched, radius, &mut scratch));
        affected.extend(new.gaifman().ball(touched, radius, &mut scratch));
        let mut dirty: Vec<u32> = affected.into_iter().collect();
        dirty.sort_unstable();
        match patch_vector(&mut lev, &term, &vals, &dirty) {
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

fn patch_vector(
    lev: &mut LocalEvaluator<'_>,
    term: &crate::clterm::BasicClTerm,
    vals: &[i64],
    dirty: &[u32],
) -> Result<Vec<i64>> {
    let mut out = vals.to_vec();
    for &a in dirty {
        out[a as usize] = lev.eval_basic_at(term, a)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_logic::build::{and, atom, eq, not, v};
    use foc_logic::Predicates;
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

    /// Basic cl-terms of `#(x,y). ¬E(x,y) ∧ x≠y` (a genuine polynomial).
    fn test_basics() -> Vec<BasicClTerm> {
        let (x, y) = (v("x"), v("y"));
        let body = and(not(atom("E", [x, y])), not(eq(x, y)));
        let t = decompose_ground(&body, &[x, y]).unwrap();
        let mut out = Vec::new();
        collect_basics(&t, &mut out);
        out
    }

    fn collect_basics(t: &ClTerm, out: &mut Vec<BasicClTerm>) {
        match t {
            ClTerm::Basic(b) => out.push((**b).clone()),
            ClTerm::Add(ts) | ClTerm::Mul(ts) => ts.iter().for_each(|s| collect_basics(s, out)),
            ClTerm::Int(_) => {}
        }
    }

    #[test]
    fn migration_matches_fresh_evaluation() {
        let preds = Predicates::standard();
        let mut d = path(12);
        let old = d.snapshot();
        old.gaifman();
        let cache = TermCache::default();
        let basics = test_basics();
        assert!(!basics.is_empty());
        // Warm the cache at the old epoch.
        {
            let mut lev = LocalEvaluator::new(&old, &preds);
            for b in &basics {
                let vals = lev.eval_basic_all(b).unwrap();
                cache.insert(b, &old, None, vals);
            }
        }
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
        let mut lev = LocalEvaluator::new(&new, &preds);
        for b in &basics {
            let migrated = cache.get(b, &new, None).expect("entry migrated");
            let fresh = lev.eval_basic_all(b).unwrap();
            assert_eq!(*migrated, fresh, "term {b:?}");
        }
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
    fn reverted_content_cannot_resurrect_stale_entries() {
        // Regression for the epoch-folded fingerprint: a commit sequence
        // that restores the original tuples still yields a *different*
        // fingerprint, so a cache warmed at epoch 0 can never answer for
        // the epoch-2 snapshot by content coincidence — every read of
        // the new snapshot goes through migration or a recompute.
        let preds = Predicates::standard();
        let mut d = path(8);
        let old = d.snapshot();
        let cache = TermCache::default();
        let basics = test_basics();
        {
            let mut lev = LocalEvaluator::new(&old, &preds);
            for b in &basics {
                let vals = lev.eval_basic_all(b).unwrap();
                cache.insert(b, &old, None, vals);
            }
        }
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
