//! Id-keyed tables for the per-event path: [`IdMap`] and [`IdSet`].
//!
//! Every table an event probes is keyed by one superblock id, and every
//! trace the repo generates numbers its registry densely from 0. So an
//! id below [`DIRECT_IDS`] is its own slot index: a lookup is one
//! bounds check, no hash. The direct side grows on demand, only as far
//! as the largest such id inserted, so whatever ids a trace holds it
//! never exceeds `DIRECT_IDS` slots per table — 512 KiB for an
//! `IdMap<u32>`, 1.5 MiB for a link-graph row table, 8 KiB for an
//! [`IdSet`] bitset.
//!
//! Ids at or above the bound (sparse guest PCs, tenant-tagged ids a
//! caller did not split, crafted ids) go to a `HashMap` under
//! [`IdHasher`]: two multiply-folds instead of SipHash, still **keyed**
//! — each table draws its key once from [`RandomState`] — so ids
//! crafted in an untrusted trace registry cannot be aimed at one bucket
//! chain. An [`IdMap`] also lists its hashed ids in a `Vec` and walks
//! that, so no walk ever follows hash order: iteration yields direct
//! ids ascending, then hashed ids in insertion order (a removal moves
//! the last one into the hole). That order still depends on a table's
//! history, not just its contents, so it must never reach an event
//! stream, a `SimResult` or rendered output: count, sum or sort
//! (DESIGN.md §8; `clippy.toml` disallows `IdMap::{iter, retain}`,
//! and `IdSet` has no walk).

use crate::ids::SuperblockId;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::mem;
use std::ops::Index;

/// Ids below this bound index a table's direct side; the rest hash.
pub const DIRECT_IDS: u64 = 1 << 16;

/// The direct-side slot of `id`, if it has one.
#[inline]
fn slot(id: SuperblockId) -> Option<usize> {
    (id.0 < DIRECT_IDS).then_some(id.0 as usize)
}

/// Map from superblock id to `V`: a `Vec` slot per id below
/// [`DIRECT_IDS`], a keyed `HashMap` above it. See the module docs.
#[derive(Debug, Clone)]
pub struct IdMap<V> {
    direct: Vec<Option<V>>,
    /// Occupied slots of `direct`, so `len` is O(1).
    direct_len: usize,
    /// Each id at or above the bound: its value and its position in
    /// `hashed_ids`.
    hashed: HashMap<SuperblockId, (V, usize), IdHasher>,
    /// The keys of `hashed`, in insertion order: what a walk follows.
    hashed_ids: Vec<SuperblockId>,
}

impl<V> Default for IdMap<V> {
    fn default() -> IdMap<V> {
        IdMap {
            direct: Vec::new(),
            direct_len: 0,
            hashed: HashMap::default(),
            hashed_ids: Vec::new(),
        }
    }
}

impl<V> IdMap<V> {
    /// An empty map with direct slots reserved for `n` dense ids.
    #[must_use]
    pub fn with_capacity(n: usize) -> IdMap<V> {
        IdMap {
            direct: Vec::with_capacity(n.min(DIRECT_IDS as usize)),
            ..IdMap::default()
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.direct_len + self.hashed_ids.len()
    }

    /// True if the map holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value stored for `id`.
    #[must_use]
    pub fn get(&self, id: &SuperblockId) -> Option<&V> {
        match slot(*id) {
            Some(i) => self.direct.get(i).and_then(Option::as_ref),
            None => self.hashed.get(id).map(|(value, _)| value),
        }
    }

    /// The value stored for `id`, mutably.
    pub fn get_mut(&mut self, id: &SuperblockId) -> Option<&mut V> {
        match slot(*id) {
            Some(i) => self.direct.get_mut(i).and_then(Option::as_mut),
            None => self.hashed.get_mut(id).map(|(value, _)| value),
        }
    }

    /// True if `id` has an entry.
    #[must_use]
    pub fn contains_key(&self, id: &SuperblockId) -> bool {
        self.get(id).is_some()
    }

    /// Stores `value` for `id`, returning the value it replaces.
    pub fn insert(&mut self, id: SuperblockId, value: V) -> Option<V> {
        let Some(i) = slot(id) else {
            return match self.hashed.entry(id) {
                Entry::Occupied(mut entry) => Some(mem::replace(&mut entry.get_mut().0, value)),
                Entry::Vacant(entry) => {
                    entry.insert((value, self.hashed_ids.len()));
                    self.hashed_ids.push(id);
                    None
                }
            };
        };
        if let Some(cell) = self.direct.get_mut(i) {
            let old = cell.replace(value);
            self.direct_len += usize::from(old.is_none());
            return old;
        }
        self.direct.resize_with(i, || None);
        self.direct.push(Some(value));
        self.direct_len += 1;
        None
    }

    /// Removes `id`'s entry, returning its value.
    pub fn remove(&mut self, id: &SuperblockId) -> Option<V> {
        let Some(i) = slot(*id) else {
            let (value, at) = self.hashed.remove(id)?;
            self.hashed_ids.swap_remove(at);
            if let Some(moved) = self.hashed_ids.get(at) {
                if let Some(entry) = self.hashed.get_mut(moved) {
                    entry.1 = at;
                }
            }
            return Some(value);
        };
        let old = self.direct.get_mut(i).and_then(Option::take);
        self.direct_len -= usize::from(old.is_some());
        old
    }

    /// The value stored for `id`, inserting `V::default()` first if
    /// there is none (`HashMap`'s `entry(id).or_default()`).
    pub fn get_or_insert_default(&mut self, id: SuperblockId) -> &mut V
    where
        V: Default,
    {
        let Some(i) = slot(id) else {
            let ids = &mut self.hashed_ids;
            let entry = self.hashed.entry(id).or_insert_with(|| {
                ids.push(id);
                (V::default(), ids.len() - 1)
            });
            return &mut entry.0;
        };
        if i >= self.direct.len() {
            self.direct.resize_with(i + 1, || None);
        }
        let cell = &mut self.direct[i];
        if cell.is_none() {
            self.direct_len += 1;
        }
        cell.get_or_insert_with(V::default)
    }

    /// Removes every entry. The direct side keeps its allocation.
    pub fn clear(&mut self) {
        self.direct.clear();
        self.direct_len = 0;
        self.hashed.clear();
        self.hashed_ids.clear();
    }

    /// Every entry as `(id, value)`: direct ids ascending, then hashed
    /// ids in insertion order — history-dependent (module docs).
    pub fn iter(&self) -> impl Iterator<Item = (SuperblockId, &V)> + '_ {
        let direct = self.direct.iter().enumerate();
        let hashed = self.hashed_ids.iter();
        direct
            .filter_map(|(i, v)| Some((SuperblockId(i as u64), v.as_ref()?)))
            .chain(hashed.filter_map(|&id| Some((id, &self.hashed.get(&id)?.0))))
    }

    /// Visits every entry mutably, in [`IdMap::iter`]'s order, and
    /// removes those for which `keep` returns `false`.
    pub fn retain(&mut self, mut keep: impl FnMut(SuperblockId, &mut V) -> bool) {
        for (i, cell) in self.direct.iter_mut().enumerate() {
            if cell
                .as_mut()
                .is_some_and(|v| !keep(SuperblockId(i as u64), v))
            {
                *cell = None;
                self.direct_len -= 1;
            }
        }
        let mut at = 0;
        while let Some(&id) = self.hashed_ids.get(at) {
            let kept = self.hashed.get_mut(&id).is_none_or(|(v, _)| keep(id, v));
            if kept {
                at += 1;
            } else {
                // Moves the last id into `at`, which is visited next.
                self.remove(&id);
            }
        }
    }
}

impl<V> Index<&SuperblockId> for IdMap<V> {
    type Output = V;

    /// # Panics
    ///
    /// Panics if `id` has no entry, as `HashMap`'s `Index` does.
    fn index(&self, id: &SuperblockId) -> &V {
        match slot(*id).and_then(|i| self.direct.get(i)) {
            Some(Some(value)) => value,
            // A direct id is never in `hashed`, so an absent one panics
            // there.
            _ => &self.hashed[id].0,
        }
    }
}

impl<V> FromIterator<(SuperblockId, V)> for IdMap<V> {
    fn from_iter<I: IntoIterator<Item = (SuperblockId, V)>>(entries: I) -> IdMap<V> {
        let mut map = IdMap::default();
        for (id, value) in entries {
            map.insert(id, value);
        }
        map
    }
}

/// Set of superblock ids: a bitset below [`DIRECT_IDS`], a keyed
/// `HashSet` above it. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct IdSet {
    words: Vec<u64>,
    hashed: HashSet<SuperblockId, IdHasher>,
}

impl IdSet {
    /// True if `id` is in the set.
    #[must_use]
    pub fn contains(&self, id: &SuperblockId) -> bool {
        match slot(*id) {
            Some(i) => self
                .words
                .get(i / 64)
                .is_some_and(|w| w >> (i % 64) & 1 == 1),
            None => self.hashed.contains(id),
        }
    }

    /// Adds `id`; returns `false` if it was already there.
    pub fn insert(&mut self, id: SuperblockId) -> bool {
        let Some(i) = slot(id) else {
            return self.hashed.insert(id);
        };
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let w = &mut self.words[word];
        let new = *w & bit == 0;
        *w |= bit;
        new
    }

    /// Empties the set. Truncating the bitset is O(1); the next inserts
    /// zero only the words they reach, so a set cleared once per
    /// eviction invocation touches only the words its victims use.
    pub fn clear(&mut self) {
        self.words.clear();
        self.hashed.clear();
    }
}

/// 64×64→128-bit multiply with the high half folded into the low half.
#[inline]
fn fold(x: u64, mul: u64) -> u64 {
    let product = u128::from(x) * u128::from(mul);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Keyed hasher for 64-bit ids: `fold(n ^ key, mul)`, folded once more
/// by a fixed constant, because any single multiplier clusters some id
/// stride and a table's speed would then depend on the key it drew
/// (DESIGN.md §8 has the numbers).
///
/// The type is its own [`BuildHasher`]: `Default` draws a fresh `key`
/// and odd `mul`, and a table hands out copies of it with `state` zero.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher {
    state: u64,
    key: u64,
    mul: u64,
}

impl Default for IdHasher {
    fn default() -> IdHasher {
        let random = RandomState::new();
        IdHasher {
            state: 0,
            key: random.hash_one(0u64),
            mul: random.hash_one(1u64) | 1,
        }
    }
}

impl BuildHasher for IdHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        *self
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let round = fold(self.state ^ n ^ self.key, self.mul);
        self.state = fold(round, 0x9e37_79b9_7f4a_7c15);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_id_shapes_spread_evenly_under_two_keys() {
        let n = 1u64 << 14;
        // Dense registry ids, strided guest PCs, tenant-tagged `tenant << 32 | local`.
        let shapes: [fn(u64) -> u64; 3] = [
            |i| i,
            |i| 0x40_0000 + i * 1000,
            |i| ((i % 4) << 32) | (i / 4),
        ];
        // The second multiplier is one a single fold round clusters
        // (54 dense ids in one of 1024 buckets).
        let keys = [
            (0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7345),
            (0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89),
        ];
        for (key, mul) in keys {
            let build = IdHasher { state: 0, key, mul };
            for (shape, id_of) in shapes.into_iter().enumerate() {
                // hashbrown starts its probe at the hash's low bits and
                // tags each slot with its top seven.
                for (shift, bits) in [(0, 10), (57, 7)] {
                    let mut load = vec![0u64; 1 << bits];
                    for i in 0..n {
                        let hash = build.hash_one(SuperblockId(id_of(i))) >> shift;
                        load[hash as usize % (1 << bits)] += 1;
                    }
                    let (worst, mean) = (load.into_iter().max().unwrap(), n >> bits);
                    assert!(
                        worst <= 3 * mean,
                        "shape {shape}, key {key:#x}, shift {shift}: max load {worst} vs mean {mean}"
                    );
                }
            }
        }
    }

    /// Seeded random operations on an [`IdMap`]/[`IdSet`] and a
    /// `BTreeMap`/`BTreeSet` twin, with ids on both sides of
    /// [`DIRECT_IDS`]; the pair must agree after every step.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the walks are checked against a sorted twin, never against an order"
    )]
    fn tables_agree_with_a_btree_model_on_both_sides_of_the_bound() {
        use std::collections::{BTreeMap, BTreeSet};
        let pool: Vec<SuperblockId> = [
            0,
            1,
            2,
            63,
            64,
            65,
            1000,
            DIRECT_IDS - 2,
            DIRECT_IDS - 1,
            DIRECT_IDS,
            DIRECT_IDS + 1,
            1 << 32,
            1 << 32 | 1,
            2 << 32 | 77,
            3 << 32 | 0xffff_ffff,
            u64::MAX - 1,
            u64::MAX,
        ]
        .into_iter()
        .map(SuperblockId)
        .collect();
        // xorshift64: deterministic, no external deps.
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut map: IdMap<u64> = IdMap::with_capacity(4);
        let mut set = IdSet::default();
        let mut map_twin = BTreeMap::new();
        let mut set_twin = BTreeSet::new();
        for step in 0..1_500u64 {
            let r = next();
            let id = pool[(r >> 16) as usize % pool.len()];
            match r % 16 {
                0..=3 => assert_eq!(map.insert(id, step), map_twin.insert(id, step)),
                4..=5 => assert_eq!(map.remove(&id), map_twin.remove(&id)),
                6 => {
                    *map.get_or_insert_default(id) += 1;
                    *map_twin.entry(id).or_default() += 1;
                }
                7 => {
                    let twin = map_twin.get_mut(&id).map(|v| std::mem::replace(v, step));
                    assert_eq!(map.get_mut(&id).map(|v| std::mem::replace(v, step)), twin);
                }
                // Checked below: every value moved by exactly one, and
                // about a third dropped.
                8 => {
                    let mut visits = 0;
                    map.retain(|_, v| {
                        visits += 1;
                        *v += 1;
                        *v % 3 != 0
                    });
                    assert_eq!(visits, map_twin.len(), "step {step}");
                    map_twin.retain(|_, v| {
                        *v += 1;
                        *v % 3 != 0
                    });
                }
                9 if (r >> 8) % 50 == 0 => {
                    map.clear();
                    map_twin.clear();
                }
                10 if (r >> 8) % 20 == 0 => {
                    set.clear();
                    set_twin.clear();
                }
                _ => assert_eq!(set.insert(id), set_twin.insert(id)),
            }
            assert_eq!(map.len(), map_twin.len(), "step {step}");
            assert_eq!(map.is_empty(), map_twin.is_empty());
            for p in &pool {
                assert_eq!(map.get(p), map_twin.get(p), "step {step}, id {p:?}");
                assert_eq!(map.contains_key(p), map_twin.contains_key(p));
                if let Some(v) = map_twin.get(p) {
                    assert_eq!(&map[p], v);
                }
                assert_eq!(
                    set.contains(p),
                    set_twin.contains(p),
                    "step {step}, id {p:?}"
                );
            }
            let mut entries: Vec<(SuperblockId, u64)> = map.iter().map(|(k, &v)| (k, v)).collect();
            entries.sort_unstable();
            let twin: Vec<(SuperblockId, u64)> = map_twin.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(entries, twin, "step {step}");
        }
        let rebuilt: IdMap<u64> = map_twin.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(rebuilt.len(), map_twin.len());
        assert!(map_twin.iter().all(|(k, v)| rebuilt.get(k) == Some(v)));
    }

    #[test]
    #[should_panic]
    fn indexing_an_absent_direct_id_panics() {
        let mut map = IdMap::default();
        map.insert(SuperblockId(5), 1u32);
        let _ = map[&SuperblockId(3)];
    }

    #[test]
    fn every_table_draws_its_own_key() {
        let probe = SuperblockId(0xdead_beef);
        let (a, b) = (IdHasher::default(), IdHasher::default());
        assert_ne!(a.hash_one(probe), b.hash_one(probe));
    }
}
