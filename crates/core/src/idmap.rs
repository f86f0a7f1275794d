//! Id-keyed hash tables for the per-event path: [`IdMap`] and [`IdSet`].
//!
//! Every table an event probes is keyed by one `u64`, on which SipHash
//! costs several times the probe itself, so these tables hash with two
//! multiply-folds instead. The hasher stays **keyed** — each table draws
//! its key once from [`RandomState`] — so ids crafted in an untrusted
//! trace registry still cannot be aimed at one bucket chain. Iteration
//! order therefore differs from table to table and run to run, and must
//! never reach an event stream, a `SimResult` or rendered output: count,
//! sum or sort (DESIGN.md §8; `cce-analyze` `nondet-taint` checks it).

use crate::ids::SuperblockId;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher, RandomState};

/// `HashMap` from superblock id to `V` under the keyed [`IdHasher`].
/// Build one with `IdMap::default()` or `with_capacity_and_hasher`.
pub type IdMap<V> = HashMap<SuperblockId, V, IdHasher>;

/// `HashSet` of superblock ids under the keyed [`IdHasher`].
pub type IdSet = HashSet<SuperblockId, IdHasher>;

/// 64×64→128-bit multiply with the high half folded into the low half.
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

    fn build_hasher(&self) -> IdHasher {
        *self
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

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
        // Dense registry ids, strided guest PCs, serve's `tenant << 32 | local`.
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

    #[test]
    fn every_table_draws_its_own_key() {
        let probe = SuperblockId(0xdead_beef);
        let (a, b) = (IdHasher::default(), IdHasher::default());
        assert_ne!(a.hash_one(probe), b.hash_one(probe));
    }
}
