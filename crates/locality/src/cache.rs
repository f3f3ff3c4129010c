//! A memoised store of basic-cl-term values, shared across the main
//! algorithm's recursion.
//!
//! The Section 8.2 recursion re-evaluates the *same* basic cl-term on
//! the *same* database many times: sibling clusters of a neighbourhood
//! cover are frequently identical up to renaming handled upstream (the
//! induced substructures of equal member sets), the removal rewriting
//! produces the same components at every cluster, and the engine's
//! sentence resolution revisits terms across markers. [`TermCache`]
//! memoises the per-element value vector of a basic cl-term keyed by
//! *content*: the term's structural hash and the structure's
//! fingerprint. Both evaluators consult it, so a value computed by ball
//! enumeration at the recursion floor is reused by the cover engine one
//! level up and vice versa.
//!
//! The cover engine only needs values at a cluster's *demanded*
//! elements (the paper's `Q` marker). A vector computed for a demand
//! `D` is stored under a key that also carries a hash of the sorted set
//! `D` (element ids local to the structure), so clusters that are equal
//! up to renumbering — and demanded at the same local positions — still
//! share work. Such an entry keeps only the `|D|` demanded values. A
//! lookup for `D` is served by the full vector when one is resident, and
//! otherwise by an entry for exactly `D`.
//!
//! The cache is `Sync` (a mutexed map with atomic hit/miss counters) so
//! the parallel cluster path can share one instance across workers
//! without affecting determinism: a hit returns exactly the vector the
//! miss path would have computed.
//!
//! At capacity the cache runs CLOCK (second-chance) eviction: every hit
//! sets the entry's reference bit, and an insert needing space sweeps
//! the ring clearing bits until it finds an unreferenced victim. An
//! insert that completes a full lap without finding one (everything was
//! referenced since the last sweep) is dropped instead — so a burst of
//! fresh terms cannot flush a hot working set, and a long-lived server
//! does not pin first-seen entries forever the way the old
//! stop-inserting-at-capacity policy did. Evictions are counted under
//! `engine.cache.evictions`, and the cache's resident footprint can be
//! mirrored into a [`foc_guard::MemoryMeter`] for watermark enforcement.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use foc_guard::MemoryMeter;
use foc_obs::{names, Counter, Metrics};
use foc_structures::{FxHashMap, Structure};

use crate::clterm::BasicClTerm;

/// Key of one memoised value: (term structure, database content,
/// demand). The universe order is kept alongside the hashes so a
/// collision must also agree on the vector length to go unnoticed;
/// `demand` is `None` for a full vector and `Some((hash, len))` of the
/// sorted demanded set otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    term: u64,
    structure: u64,
    order: u32,
    demand: Option<(u64, u32)>,
}

/// A demand naming every element is the full demand (`None`), so both
/// spellings share one entry. Demands are sorted, unique subsets of the
/// universe, so full length means every element.
fn partial_demand<'d>(demand: Option<&'d [u32]>, s: &Structure) -> Option<&'d [u32]> {
    demand.filter(|d| d.len() < s.order() as usize)
}

impl Key {
    fn new(term: u64, s: &Structure, demand: Option<&[u32]>) -> Key {
        Key {
            term,
            structure: s.fingerprint(),
            order: s.order(),
            demand: demand.map(|d| {
                use std::hash::Hasher;
                let mut h = foc_structures::FxHasher::default();
                for &e in d {
                    h.write_u32(e);
                }
                (h.finish(), d.len() as u32)
            }),
        }
    }
}

/// One memoised value together with the *actual* term it was computed
/// for. `structural_hash()` is only 64 bits, so two distinct basic
/// cl-terms can share a [`Key`]; a hit is only returned after the stored
/// term compares equal to the queried one. (The structure side stays
/// fingerprint-keyed — storing structures would defeat the memory bound —
/// so the key retains the order as an independent discriminator.)
#[derive(Debug, Clone)]
struct Entry {
    term: BasicClTerm,
    vals: Arc<Vec<i64>>,
    /// Ring identity (see [`Inner::ring`]).
    id: u64,
    /// CLOCK reference bit: set on every hit, cleared by the sweep.
    referenced: bool,
}

/// Fixed per-entry overhead charged on top of the value vector: the key,
/// the stored term, and the map/ring bookkeeping, approximated.
const ENTRY_OVERHEAD_BYTES: u64 = 96;

fn entry_bytes(vals: &[i64]) -> u64 {
    ENTRY_OVERHEAD_BYTES + (vals.len() as u64) * 8
}

/// The mutexed interior: buckets per key (colliding *distinct* terms
/// coexist instead of shadowing each other), the CLOCK ring, and running
/// entry/byte counts so capacity checks stay O(1).
#[derive(Debug, Default)]
struct Inner {
    map: FxHashMap<Key, Vec<Entry>>,
    /// The eviction ring: one slot per resident entry, identified by
    /// `(key, id)`. Order is approximate (victim slots are back-filled
    /// by `swap_remove`), which is all CLOCK needs.
    ring: Vec<(Key, u64)>,
    /// The clock hand: index into `ring` where the next sweep starts.
    hand: usize,
    /// Monotonic entry-id source (disambiguates colliding-key entries in
    /// the ring).
    next_id: u64,
    resident: usize,
    resident_bytes: u64,
}

impl Inner {
    /// Sweeps the ring for an eviction victim: clears reference bits as
    /// it passes, evicts at the first clear bit, and gives up after one
    /// full lap (everything was hot). Returns the victim's byte
    /// footprint when a slot was freed.
    fn evict_one(&mut self) -> Option<u64> {
        let n = self.ring.len();
        for _ in 0..n {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let (key, id) = self.ring[self.hand];
            let bucket = self
                .map
                .get_mut(&key)
                .unwrap_or_else(|| unreachable!("ring slot without bucket"));
            let idx = bucket
                .iter()
                .position(|e| e.id == id)
                .unwrap_or_else(|| unreachable!("ring slot without entry"));
            if bucket[idx].referenced {
                bucket[idx].referenced = false;
                self.hand += 1;
                continue;
            }
            let evicted = bucket.swap_remove(idx);
            if bucket.is_empty() {
                self.map.remove(&key);
            }
            self.ring.swap_remove(self.hand);
            self.resident -= 1;
            let bytes = entry_bytes(&evicted.vals);
            self.resident_bytes = self.resident_bytes.saturating_sub(bytes);
            return Some(bytes);
        }
        None
    }
}

/// A thread-safe memo of basic-cl-term value vectors with CLOCK
/// (second-chance) eviction at capacity.
#[derive(Debug)]
pub struct TermCache {
    map: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    capacity: usize,
    /// Optional registry mirrors (`cache.hits` / `cache.misses` /
    /// `engine.cache.evictions`), incremented alongside the private
    /// atomics so a session's metrics registry sees lookups from every
    /// evaluator sharing the cache.
    obs: Option<(Counter, Counter, Counter)>,
    /// Optional shared byte account: the cache's resident footprint is
    /// mirrored there (added on insert, released on evict/drop) so a
    /// server-wide memory watermark sees cache occupancy.
    meter: Option<MemoryMeter>,
}

/// Default bound on resident entries (vectors are cluster-sized, so this
/// caps memory at roughly `capacity × max cluster order × 8` bytes).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

impl Default for TermCache {
    fn default() -> TermCache {
        TermCache::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Drop for TermCache {
    fn drop(&mut self) {
        if let Some(meter) = &self.meter {
            let inner = self.map.lock().unwrap_or_else(|e| e.into_inner());
            meter.sub(inner.resident_bytes);
        }
    }
}

impl TermCache {
    /// An empty cache holding at most `capacity` entries. At capacity,
    /// inserts evict via CLOCK/second-chance: the sweep clears reference
    /// bits and evicts the first entry not referenced since the last
    /// sweep; if every resident entry was referenced, the *incoming*
    /// entry is dropped instead (a full working set is never flushed by
    /// cold traffic).
    pub fn with_capacity(capacity: usize) -> TermCache {
        TermCache {
            map: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity,
            obs: None,
            meter: None,
        }
    }

    /// Mirrors hit/miss/eviction accounting into a metrics registry
    /// (the session-level `cache.hits` / `cache.misses` /
    /// `engine.cache.evictions` counters). Call before sharing the cache
    /// across evaluators.
    pub fn with_metrics(mut self, metrics: &Metrics) -> TermCache {
        self.obs = Some((
            metrics.counter(names::CACHE_HITS),
            metrics.counter(names::CACHE_MISSES),
            metrics.counter(names::CACHE_EVICTIONS),
        ));
        self
    }

    /// Mirrors the cache's resident footprint into a shared
    /// [`MemoryMeter`] (the server-wide memory-watermark account). The
    /// contribution is released entry-by-entry on eviction and in full
    /// when the cache drops.
    pub fn with_memory_meter(mut self, meter: MemoryMeter) -> TermCache {
        self.meter = Some(meter);
        self
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panicking evaluator thread may poison the mutex; the interior
        // is a plain memo (every entry is valid or absent), so recovery
        // is safe and keeps the cache serving.
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a value of `b` on `s` valid at every element of `demand`
    /// (sorted, unique; `None` means every element): the full vector if
    /// resident, else the entry stored for exactly this demand, spread
    /// back to one slot per element. Slots outside the demand carry no
    /// meaning. Counts one hit or one miss. A hit requires the stored term to
    /// compare *equal* to `b`, not just hash-equal, so a
    /// `structural_hash` collision can never return another term's
    /// values. Hits set the entry's CLOCK reference bit.
    pub fn get(&self, b: &BasicClTerm, s: &Structure, demand: Option<&[u32]>) -> Option<Vec<i64>> {
        self.get_hashed(b.structural_hash(), b, s, demand)
    }

    /// [`TermCache::get`] with the term-hash component of the key
    /// supplied by the caller. Kept separate so tests can force two
    /// distinct terms onto one key and observe that identity
    /// verification rejects the cross-read.
    fn get_hashed(
        &self,
        term_hash: u64,
        b: &BasicClTerm,
        s: &Structure,
        demand: Option<&[u32]>,
    ) -> Option<Vec<i64>> {
        let found = match self.probe(&Key::new(term_hash, s, None), b) {
            Some(full) => Some(full.as_ref().clone()),
            None => partial_demand(demand, s).and_then(|d| {
                let compact = self.probe(&Key::new(term_hash, s, Some(d)), b)?;
                let mut out = vec![0; s.order() as usize];
                for (&a, &v) in d.iter().zip(compact.iter()) {
                    out[a as usize] = v;
                }
                Some(out)
            }),
        };
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some((hits, _, _)) = &self.obs {
                    hits.inc();
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Some((_, misses, _)) = &self.obs {
                    misses.inc();
                }
            }
        };
        found
    }

    /// The stored vector under `key` whose term equals `b`, marking it
    /// referenced.
    fn probe(&self, key: &Key, b: &BasicClTerm) -> Option<Arc<Vec<i64>>> {
        self.lock()
            .map
            .get_mut(key)
            .and_then(|bucket| bucket.iter_mut().find(|e| e.term == *b))
            .map(|e| {
                e.referenced = true;
                e.vals.clone()
            })
    }

    /// Stores a value of `b` on `s` computed for `demand` (`None`: every
    /// element), evicting via CLOCK when at capacity (or dropping the
    /// insert when every resident entry is hot). `vals` has one slot per
    /// element of `s`; for a partial demand only the demanded slots are
    /// kept, so the entry's size is that of the demand.
    pub fn insert(&self, b: &BasicClTerm, s: &Structure, demand: Option<&[u32]>, vals: Vec<i64>) {
        self.insert_hashed(b.structural_hash(), b, s, demand, vals);
    }

    /// [`TermCache::insert`] with a caller-supplied term hash (see
    /// [`TermCache::get_hashed`]).
    fn insert_hashed(
        &self,
        term_hash: u64,
        b: &BasicClTerm,
        s: &Structure,
        demand: Option<&[u32]>,
        vals: Vec<i64>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let (key, vals) = match partial_demand(demand, s) {
            None => (Key::new(term_hash, s, None), vals),
            Some(d) => (
                Key::new(term_hash, s, Some(d)),
                d.iter().map(|&a| vals[a as usize]).collect(),
            ),
        };
        let vals = Arc::new(vals);
        let mut evicted = 0u64;
        let mut released = 0u64;
        let inserted;
        {
            let mut inner = self.lock();
            if inner
                .map
                .get(&key)
                .is_some_and(|bucket| bucket.iter().any(|e| e.term == *b))
            {
                return;
            }
            while inner.resident >= self.capacity {
                match inner.evict_one() {
                    Some(bytes) => {
                        evicted += 1;
                        released += bytes;
                    }
                    // One full lap found only referenced entries: the
                    // working set is hot, drop the incoming value.
                    None => return,
                }
            }
            let id = inner.next_id;
            inner.next_id += 1;
            inserted = entry_bytes(&vals);
            inner.ring.push((key, id));
            // Born referenced: a fresh entry gets one full lap of
            // protection, so at capacity 1 an insert cannot immediately
            // displace the previous one (it is dropped instead).
            inner.map.entry(key).or_default().push(Entry {
                term: b.clone(),
                vals,
                id,
                referenced: true,
            });
            inner.resident += 1;
            inner.resident_bytes += inserted;
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            if let Some((_, _, ev)) = &self.obs {
                ev.add(evicted);
            }
        }
        if let Some(meter) = &self.meter {
            meter.add(inserted);
            meter.sub(released);
        }
    }

    /// Evicts entries (ignoring reference bits) until at most
    /// `target_resident` remain. Used by memory-pressure handlers to
    /// shrink the cache below a watermark; returns the number evicted.
    pub fn shrink_to(&self, target_resident: usize) -> u64 {
        let mut evicted = 0u64;
        let mut released = 0u64;
        {
            let mut inner = self.lock();
            // Clear every reference bit so each sweep must succeed.
            for bucket in inner.map.values_mut() {
                for e in bucket.iter_mut() {
                    e.referenced = false;
                }
            }
            while inner.resident > target_resident {
                match inner.evict_one() {
                    Some(bytes) => {
                        released += bytes;
                        evicted += 1;
                    }
                    None => break,
                }
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            if let Some((_, _, ev)) = &self.obs {
                ev.add(evicted);
            }
            if let Some(meter) = &self.meter {
                meter.sub(released);
            }
        }
        evicted
    }

    /// Snapshots every full-vector entry memoised against a structure
    /// fingerprint, in a deterministic order (by term hash, then
    /// insertion order). Demanded entries are left out: their vectors
    /// are not valid everywhere, so they cannot be patched.
    /// Delta migration re-keys these onto the next epoch's snapshot,
    /// recomputing only dirty-ball entries. Reference bits are left
    /// untouched: enumerating for migration is not a "use".
    pub fn entries_for(&self, structure_fingerprint: u64) -> Vec<(BasicClTerm, Arc<Vec<i64>>)> {
        let inner = self.lock();
        let mut out: Vec<((u64, u64), BasicClTerm, Arc<Vec<i64>>)> = Vec::new();
        for (key, bucket) in &inner.map {
            if key.structure != structure_fingerprint || key.demand.is_some() {
                continue;
            }
            for e in bucket {
                out.push(((key.term, e.id), e.term.clone(), e.vals.clone()));
            }
        }
        out.sort_by_key(|(ord, _, _)| *ord);
        out.into_iter().map(|(_, t, v)| (t, v)).collect()
    }

    /// Evicts every entry keyed on a structure fingerprint (a retired
    /// epoch whose values can never be read again). Returns the number
    /// evicted; byte accounting and the shared memory meter are updated
    /// like any other eviction.
    pub fn evict_structure(&self, structure_fingerprint: u64) -> u64 {
        let mut evicted = 0u64;
        let mut released = 0u64;
        {
            let mut inner = self.lock();
            let stale: Vec<Key> = inner
                .map
                .keys()
                .filter(|k| k.structure == structure_fingerprint)
                .copied()
                .collect();
            for key in stale {
                if let Some(bucket) = inner.map.remove(&key) {
                    for e in &bucket {
                        released += entry_bytes(&e.vals);
                    }
                    evicted += bucket.len() as u64;
                    inner.resident -= bucket.len();
                }
            }
            if evicted > 0 {
                inner
                    .ring
                    .retain(|(k, _)| k.structure != structure_fingerprint);
                if inner.hand > inner.ring.len() {
                    inner.hand = 0;
                }
                inner.resident_bytes = inner.resident_bytes.saturating_sub(released);
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            if let Some((_, _, ev)) = &self.obs {
                ev.add(evicted);
            }
            if let Some(meter) = &self.meter {
                meter.sub(released);
            }
        }
        evicted
    }

    /// Lookups that found a memoised value.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the CLOCK sweep (including forced shrinks).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.lock().resident
    }

    /// Approximate resident footprint in bytes (value vectors plus a
    /// fixed per-entry overhead).
    pub fn resident_bytes(&self) -> u64 {
        self.lock().resident_bytes
    }

    /// The configured entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` iff nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose_unary;
    use foc_logic::build::{atom, v};
    use foc_structures::gen::{cycle, path};

    fn some_basic() -> Arc<BasicClTerm> {
        let y1 = v("y1");
        let y2 = v("y2");
        let cl = decompose_unary(&atom("E", [y1, y2]), &[y1, y2]).unwrap();
        cl.basics().into_iter().next().unwrap()
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let cache = TermCache::default();
        let b = some_basic();
        let s = path(6);
        assert!(cache.get(&b, &s, None).is_none());
        cache.insert(&b, &s, None, vec![1; 6]);
        assert_eq!(cache.get(&b, &s, None).unwrap().as_slice(), &[1; 6]);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_structures_do_not_collide() {
        let cache = TermCache::default();
        let b = some_basic();
        cache.insert(&b, &path(6), None, vec![1; 6]);
        assert!(
            cache.get(&b, &cycle(6), None).is_none(),
            "different content, same order"
        );
        assert!(cache.get(&b, &path(7), None).is_none(), "different order");
    }

    #[test]
    fn registry_mirrors_track_lookups() {
        let metrics = Metrics::new();
        let cache = TermCache::default().with_metrics(&metrics);
        let b = some_basic();
        let s = path(6);
        assert!(cache.get(&b, &s, None).is_none());
        cache.insert(&b, &s, None, vec![1; 6]);
        assert!(cache.get(&b, &s, None).is_some());
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(foc_obs::names::CACHE_HITS), 1);
        assert_eq!(snap.counter(foc_obs::names::CACHE_MISSES), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn forced_hash_collision_misses_instead_of_cross_reading() {
        // Regression: the cache used to key on structural_hash alone, so
        // two distinct terms with colliding hashes shared one slot and a
        // lookup for one could return the other's values. Force the
        // collision by injecting term 1's hash into term 2's lookup.
        use crate::gk::Gk;
        let y1 = v("y1");
        let y2 = v("y2");
        let g = Gk::from_edges(2, &[(0, 1)]);
        let b1 = BasicClTerm::new(vec![y1, y2], true, g.clone(), 0, atom("E", [y1, y2])).unwrap();
        let b2 = BasicClTerm::new(vec![y1, y2], true, g, 1, atom("E", [y1, y2])).unwrap();
        assert_ne!(b1, b2, "the two terms must differ (radius 0 vs 1)");
        let cache = TermCache::default();
        let s = path(6);
        let h = b1.structural_hash();
        cache.insert_hashed(h, &b1, &s, None, vec![7; 6]);
        assert!(
            cache.get_hashed(h, &b2, &s, None).is_none(),
            "a colliding key must not surface another term's values"
        );
        // Both colliding terms coexist in the bucket with their own data.
        cache.insert_hashed(h, &b2, &s, None, vec![9; 6]);
        assert_eq!(
            cache.get_hashed(h, &b1, &s, None).unwrap().as_slice(),
            &[7; 6]
        );
        assert_eq!(
            cache.get_hashed(h, &b2, &s, None).unwrap().as_slice(),
            &[9; 6]
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn demanded_entries_serve_only_their_demand() {
        let cache = TermCache::default();
        let b = some_basic();
        let s = path(6);
        cache.insert(&b, &s, Some(&[1, 3]), vec![9, 5, 9, 7, 9, 9]);
        assert_eq!(
            cache.get(&b, &s, Some(&[1, 3])).unwrap(),
            vec![0, 5, 0, 7, 0, 0],
            "only the demanded slots are stored"
        );
        assert_eq!(cache.resident_bytes(), ENTRY_OVERHEAD_BYTES + 2 * 8);
        assert!(cache.get(&b, &s, Some(&[1])).is_none(), "other demand");
        assert!(cache.get(&b, &s, None).is_none(), "not a full vector");
        assert!(
            cache.entries_for(s.fingerprint()).is_empty(),
            "demanded entries are not migratable"
        );
        // A full vector serves every demand.
        cache.insert(&b, &s, None, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(cache.get(&b, &s, Some(&[1])).unwrap()[1], 2);
        assert_eq!(cache.get(&b, &s, Some(&[1, 3])).unwrap()[3], 4);
        assert_eq!((cache.hits(), cache.misses()), (3, 2));
    }

    #[test]
    fn capacity_bounds_inserts() {
        let cache = TermCache::with_capacity(1);
        let b = some_basic();
        cache.insert(&b, &path(4), None, vec![0; 4]);
        cache.insert(&b, &path(5), None, vec![0; 5]);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&b, &path(4), None).is_some());
        assert!(cache.get(&b, &path(5), None).is_none());
    }

    #[test]
    fn clock_evicts_cold_entries_instead_of_pinning_first_seen() {
        // The pre-CLOCK policy pinned the first `capacity` entries
        // forever. Now: entries referenced since the last sweep survive
        // (second chance), unreferenced ones are evicted.
        let cache = TermCache::with_capacity(2);
        let b = some_basic();
        cache.insert(&b, &path(4), None, vec![0; 4]);
        cache.insert(&b, &path(5), None, vec![0; 5]);
        // Both entries are born referenced, so this insert completes a
        // full lap clearing their bits and is dropped (working set hot).
        cache.insert(&b, &path(6), None, vec![0; 6]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert!(
            cache.get(&b, &path(6), None).is_none(),
            "hot lap drops incoming"
        );
        // Re-reference path(5); path(4) stays cold from the cleared lap.
        assert!(cache.get(&b, &path(5), None).is_some());
        // Now the sweep finds path(4) unreferenced and evicts it.
        cache.insert(&b, &path(7), None, vec![0; 7]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(
            cache.get(&b, &path(4), None).is_none(),
            "cold entry evicted"
        );
        assert!(
            cache.get(&b, &path(5), None).is_some(),
            "hot entry survives"
        );
        assert!(
            cache.get(&b, &path(7), None).is_some(),
            "new entry resident"
        );
    }

    #[test]
    fn eviction_counter_mirrors_into_registry() {
        let metrics = Metrics::new();
        let cache = TermCache::with_capacity(1).with_metrics(&metrics);
        let b = some_basic();
        cache.insert(&b, &path(4), None, vec![0; 4]);
        // First attempt is dropped (path(4) is born referenced) but
        // clears its bit; the second attempt evicts it.
        cache.insert(&b, &path(5), None, vec![0; 5]);
        assert_eq!(cache.evictions(), 0);
        cache.insert(&b, &path(6), None, vec![0; 6]);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&b, &path(6), None).is_some());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(
            metrics.snapshot().counter(foc_obs::names::CACHE_EVICTIONS),
            1
        );
    }

    #[test]
    fn byte_accounting_and_memory_meter() {
        let meter = MemoryMeter::new();
        let cache = TermCache::with_capacity(8).with_memory_meter(meter.clone());
        let b = some_basic();
        assert_eq!(cache.resident_bytes(), 0);
        cache.insert(&b, &path(4), None, vec![0; 4]);
        let one = cache.resident_bytes();
        assert_eq!(one, ENTRY_OVERHEAD_BYTES + 4 * 8);
        assert_eq!(meter.used(), one);
        cache.insert(&b, &path(5), None, vec![0; 5]);
        assert_eq!(meter.used(), cache.resident_bytes());
        // Forced shrink releases both the cache's and the meter's bytes.
        let evicted = cache.shrink_to(1);
        assert_eq!(evicted, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(meter.used(), cache.resident_bytes());
        drop(cache);
        assert_eq!(meter.used(), 0, "drop releases the full contribution");
    }

    #[test]
    fn shrink_to_zero_empties_the_cache() {
        let cache = TermCache::with_capacity(8);
        let b = some_basic();
        for n in 4..8 {
            cache.insert(&b, &path(n), None, vec![0; n as usize]);
        }
        // Reference bits do not protect entries from a forced shrink.
        assert!(cache.get(&b, &path(4), None).is_some());
        assert_eq!(cache.shrink_to(0), 4);
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.evictions(), 4);
    }
}
