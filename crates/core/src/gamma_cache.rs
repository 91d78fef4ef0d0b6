//! Bounded, allocation-free memoization of merged interleaving efficiency,
//! and the segmented memo both planner memos are built on.
//!
//! [`crate::grouping`] scores every ordered profile-class pair of each
//! round graph, and the scheduler re-scores the same pairs pass after
//! pass, so γ lookups are among the hottest paths in the planner. The
//! γ memo (`GammaMemo`) is owned by one [`crate::Planner`], which
//! serves one grouping config, so the ordering policy is fixed per memo
//! and stays out of the key. It has:
//!
//! * a fixed-size key — `[StageProfile; NUM_RESOURCES]` plus a length —
//!   so lookups never allocate;
//! * key canonicalization under the permutation-invariant policies
//!   ([`OrderingPolicy::Best`] / [`OrderingPolicy::Worst`]): members are
//!   sorted into a canonical order so `[A, B]` and `[B, A]` share one
//!   entry. γ itself is computed **on the sorted order**, which makes the
//!   invariance exact at the bit level rather than merely within float
//!   tolerance. [`OrderingPolicy::Canonical`] executes stages in the
//!   caller's order, so its key keeps that order;
//! * segmented (hot/cold) eviction (`Segmented`) instead of wholesale
//!   `clear()`: on overflow the cold half is dropped and the hot half
//!   demoted, while a hit in the cold half promotes the entry back to
//!   hot — so entries the scheduler still touches survive overflow
//!   indefinitely;
//! * a cheap multiply-rotate hasher ([`FxHasher`]) — SipHash dominates
//!   the lookup cost for small fixed-size keys;
//! * hit/miss counters, which each planning pass reports in its
//!   `planning_pass` journal event.
//!
//! All planning is serial on the planner's thread: the sharded
//! planner's worker threads solve shard templates from a finished class
//! table and never look up γ.

use muri_interleave::{policy_efficiency, OrderingPolicy};
use muri_workload::{StageProfile, NUM_RESOURCES};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Entries per segment; two segments bound the memo at twice this.
const DEFAULT_SEGMENT_CAPACITY: usize = 100_000;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A multiply-rotate hasher in the style of rustc's FxHash: word-at-a-time
/// mixing with no finalization round. Not DoS-resistant — fine here, keys
/// are internal profile data, never attacker-controlled.
#[derive(Default, Clone)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }
}

pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hit/miss counters of a planner memo, plus its live entry count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct CacheStats {
    /// Lookups answered from the memo (either segment).
    pub hits: u64,
    /// Lookups that had to compute their value.
    pub misses: u64,
    /// Entries currently resident across both segments.
    pub entries: usize,
}

/// A two-segment memo: new and touched entries live in `hot`; once the
/// hot segment's weight reaches the budget, the next insert demotes it
/// to `cold` and drops the old cold segment wholesale. A cold hit
/// promotes the entry back to hot, so only entries untouched for a full
/// segment's worth of inserts die. Lookup-only maps (never iterated),
/// so eviction is deterministic.
pub(crate) struct Segmented<K, V> {
    hot: HashMap<K, V, FxBuildHasher>,
    cold: HashMap<K, V, FxBuildHasher>,
    /// Summed weight of the entries inserted into `hot` since the last
    /// rotation.
    hot_weight: usize,
    budget: usize,
    /// An entry's weight against the budget, taken when it enters `hot`.
    weigh: fn(&K, &V) -> usize,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl<K: Hash + Eq, V> Segmented<K, V> {
    pub(crate) fn new(budget: usize, weigh: fn(&K, &V) -> usize) -> Self {
        Segmented {
            hot: HashMap::default(),
            cold: HashMap::default(),
            hot_weight: 0,
            budget: budget.max(1),
            weigh,
            hits: 0,
            misses: 0,
        }
    }

    /// Find the entry for `key`, promoting a cold hit into the hot
    /// segment. Counts the hit or miss.
    pub(crate) fn lookup<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.hot.contains_key(key) {
            self.hits += 1;
            return self.hot.get_mut(key);
        }
        if let Some((k, v)) = self.cold.remove_entry(key) {
            // A cold hit proves the entry is still in use, so it must
            // outlive the next rotation.
            self.hits += 1;
            self.insert(k, v);
            return self.hot.get_mut(key);
        }
        self.misses += 1;
        None
    }

    /// The entry for `key` in either segment, without promoting it or
    /// counting the lookup.
    pub(crate) fn peek_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        match self.hot.get_mut(key) {
            Some(v) => Some(v),
            None => self.cold.get_mut(key),
        }
    }

    /// Insert a new entry into the hot segment, rotating first if the
    /// hot segment has spent its budget.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.hot_weight >= self.budget {
            self.cold = std::mem::take(&mut self.hot);
            self.hot_weight = 0;
        }
        self.hot_weight += (self.weigh)(&key, &value);
        self.hot.insert(key, value);
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.hot.len() + self.cold.len(),
        }
    }
}

/// Fixed-size canonical memo key: the member profiles (padded with
/// defaults past `len`) and the member count.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct GammaKey {
    profiles: [StageProfile; NUM_RESOURCES],
    len: u8,
}

impl GammaKey {
    fn new(profiles: &[StageProfile], ordering: OrderingPolicy) -> Self {
        assert!(
            profiles.len() <= NUM_RESOURCES,
            "at most {NUM_RESOURCES} jobs per group, got {}",
            profiles.len()
        );
        let mut buf = [StageProfile::default(); NUM_RESOURCES];
        buf[..profiles.len()].copy_from_slice(profiles);
        if matches!(ordering, OrderingPolicy::Best | OrderingPolicy::Worst) {
            // Best/Worst optimize over stage orderings, so γ is invariant
            // under member permutation; sorting folds all permutations
            // into one entry (and one bit pattern — γ is computed on this
            // order). Canonical is order-dependent: never sort it.
            buf[..profiles.len()].sort_unstable_by_key(|p| p.stage.0);
        }
        GammaKey {
            profiles: buf,
            len: profiles.len() as u8,
        }
    }

    fn profiles(&self) -> &[StageProfile] {
        &self.profiles[..usize::from(self.len)]
    }
}

/// γ of a member set under `ordering`, computed on the canonical member
/// order: exactly the value the memo would return.
pub(crate) fn canonical_efficiency(profiles: &[StageProfile], ordering: OrderingPolicy) -> f64 {
    policy_efficiency(GammaKey::new(profiles, ordering).profiles(), ordering)
}

/// One planner's memo of [`policy_efficiency`] over canonicalized
/// member sets.
pub(crate) struct GammaMemo {
    ordering: OrderingPolicy,
    memo: Segmented<GammaKey, f64>,
}

impl GammaMemo {
    pub(crate) fn new(ordering: OrderingPolicy) -> Self {
        GammaMemo::with_capacity(ordering, DEFAULT_SEGMENT_CAPACITY)
    }

    /// A memo holding at most `2 × segment_capacity` entries.
    pub(crate) fn with_capacity(ordering: OrderingPolicy, segment_capacity: usize) -> Self {
        GammaMemo {
            ordering,
            memo: Segmented::new(segment_capacity, |_, _| 1),
        }
    }

    /// Memoized γ of the group formed by `profiles`.
    pub(crate) fn efficiency(&mut self, profiles: &[StageProfile]) -> f64 {
        let key = GammaKey::new(profiles, self.ordering);
        if let Some(&mut gamma) = self.memo.lookup(&key) {
            return gamma;
        }
        let gamma = policy_efficiency(key.profiles(), self.ordering);
        self.memo.insert(key, gamma);
        gamma
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.memo.stats()
    }
}

/// No-op, kept for callers outside the workspace that emptied the old
/// per-thread γ memo between runs. The memo now belongs to each
/// [`crate::Planner`], so a fresh planner starts empty and nothing
/// outlives it.
pub fn reset() {}

#[cfg(test)]
mod tests {
    use super::*;
    use muri_workload::SimDuration;

    fn profile(a: u64, b: u64) -> StageProfile {
        StageProfile::new(
            SimDuration::from_micros(a),
            SimDuration::from_micros(b),
            SimDuration::from_micros(1),
            SimDuration::from_micros(1),
        )
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let mut memo = GammaMemo::with_capacity(OrderingPolicy::Best, 64);
        let ps = [profile(1, 2), profile(2, 1)];
        let first = memo.efficiency(&ps);
        let second = memo.efficiency(&ps);
        assert_eq!(first.to_bits(), second.to_bits());
        let s = memo.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn permuted_members_share_one_entry_under_best() {
        let mut memo = GammaMemo::with_capacity(OrderingPolicy::Best, 64);
        let a = profile(3, 1);
        let b = profile(1, 3);
        let ab = memo.efficiency(&[a, b]);
        let ba = memo.efficiency(&[b, a]);
        assert_eq!(ab.to_bits(), ba.to_bits());
        assert_eq!(
            ab.to_bits(),
            canonical_efficiency(&[b, a], OrderingPolicy::Best).to_bits()
        );
        let s = memo.stats();
        assert_eq!(s.misses, 1, "permutations must share one memo entry");
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn canonical_policy_keeps_member_order_distinct() {
        let mut memo = GammaMemo::with_capacity(OrderingPolicy::Canonical, 64);
        let a = profile(3, 1);
        let b = profile(1, 3);
        memo.efficiency(&[a, b]);
        memo.efficiency(&[b, a]);
        assert_eq!(
            memo.stats().misses,
            2,
            "Canonical is order-dependent; orders must not collide"
        );
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        // Regression for the old wholesale clear(): filling past the
        // bound must not evict entries that are still being touched.
        let mut memo = GammaMemo::with_capacity(OrderingPolicy::Best, 4);
        let keep = [profile(1000, 1), profile(1, 1000)];
        memo.efficiency(&keep);
        // Push 16 distinct entries through a capacity-4 segment, touching
        // `keep` between every insert so it keeps getting promoted.
        for i in 0..16u64 {
            memo.efficiency(&[profile(i + 1, 2 * i + 3)]);
            memo.efficiency(&keep);
        }
        let s = memo.stats();
        assert_eq!(
            s.misses, 17,
            "`keep` must never be recomputed despite 4x overflow: {s:?}"
        );
        assert_eq!(s.hits, 16);
        assert!(
            s.entries <= 8,
            "memo must stay bounded at two segments: {s:?}"
        );
    }

    #[test]
    fn cache_stays_bounded_under_churn() {
        let mut memo = GammaMemo::with_capacity(OrderingPolicy::Best, 8);
        for i in 0..1000u64 {
            memo.efficiency(&[profile(i + 1, i + 2)]);
        }
        assert!(memo.stats().entries <= 16);
    }
}
