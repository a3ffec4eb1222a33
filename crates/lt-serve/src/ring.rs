//! Consistent-hash ring mapping session ids onto shards.
//!
//! The coordinator places every session on one of N shard processes by
//! hashing its session id onto a ring of virtual nodes ([`DEFAULT_VNODES`]
//! per shard unless `LT_SHARD_VNODES` says otherwise). Virtual nodes
//! smooth the load spread; consistent hashing keeps key movement minimal
//! when the membership changes: when a shard joins, only the keys it
//! takes over move (≈ K/N of them), and every moved key moves *to* the
//! joining shard — no key shuffles between surviving shards. The
//! symmetric property holds on leave.
//!
//! Placement is part of the fabric's determinism story: the ring is a
//! pure function of `(session id, membership, vnodes)`, so replaying
//! the same ids against the same membership reproduces the same
//! placement. The *winner config* never depends on placement at all —
//! the tune is pure in `(request, seed)` — but deterministic placement
//! makes multi-process runs reproducible end to end.

use lt_common::hash_one;

/// Default number of virtual nodes per shard.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring over shard ids.
///
/// Points are sorted by hash; a key is owned by the first point at or
/// after its hash (wrapping). Ties between shards at the same hash
/// position are broken by shard id, so iteration order of construction
/// never matters.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point_hash, shard_id)`, sorted by `(point_hash, shard_id)`.
    points: Vec<(u64, u32)>,
    vnodes: usize,
}

/// Murmur3's 64-bit finalizer. [`hash_one`] is FxHash — fast and stable,
/// but with weak high-bit diffusion on structurally similar inputs, which
/// is exactly what ring points are. Positions on the ring must be
/// uniform over the whole u64 range or the load spread collapses, so the
/// Fx output gets one strong mixing pass.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

fn point_hash(shard: u32, replica: usize) -> u64 {
    mix(hash_one(&("lt-shard-ring", shard, replica as u64)))
}

fn key_hash(session_id: u64) -> u64 {
    mix(hash_one(&("lt-session-key", session_id)))
}

impl HashRing {
    /// Builds a ring over `shards` with `vnodes` virtual nodes each.
    ///
    /// Duplicate shard ids are ignored. `vnodes` is clamped to at
    /// least 1.
    pub fn new(shards: &[u32], vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let mut seen: Vec<u32> = Vec::new();
        let mut points = Vec::with_capacity(shards.len() * vnodes);
        for &shard in shards {
            if seen.contains(&shard) {
                continue;
            }
            seen.push(shard);
            for replica in 0..vnodes {
                points.push((point_hash(shard, replica), shard));
            }
        }
        points.sort_unstable();
        HashRing { points, vnodes }
    }

    /// Number of distinct shards on the ring.
    pub fn len(&self) -> usize {
        if self.vnodes == 0 {
            return 0;
        }
        self.points.len() / self.vnodes
    }

    /// True when no shards are registered.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The shard owning `session_id`, or `None` on an empty ring.
    pub fn owner(&self, session_id: u64) -> Option<u32> {
        self.owner_filtered(session_id, |_| true)
    }

    /// The shard owning `session_id`, skipping shards for which
    /// `alive` returns false (walks clockwise to the next live owner).
    ///
    /// This is the route-around-failure primitive: a dead shard's keys
    /// spill to their clockwise successors, and revert as soon as the
    /// shard is healthy again.
    pub fn owner_filtered<F: Fn(u32) -> bool>(&self, session_id: u64, alive: F) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let h = key_hash(session_id);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let n = self.points.len();
        for i in 0..n {
            let (_, shard) = self.points[(start + i) % n];
            if alive(shard) {
                return Some(shard);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_common::derive_seed;

    /// Seeded ids exercised by the property tests. Spread over the full
    /// u64 space via `derive_seed` so the ring sees realistic hashes,
    /// not consecutive small integers.
    fn keys(n: u64, seed: u64) -> Vec<u64> {
        (0..n).map(|i| derive_seed(seed, i)).collect()
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new(&[], DEFAULT_VNODES);
        assert!(ring.is_empty());
        assert_eq!(ring.owner(1), None);
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::new(&[0], DEFAULT_VNODES);
        for k in keys(100, 7) {
            assert_eq!(ring.owner(k), Some(0));
        }
    }

    #[test]
    fn placement_is_deterministic_and_order_independent() {
        let a = HashRing::new(&[0, 1, 2, 3], 32);
        let b = HashRing::new(&[3, 1, 0, 2, 2], 32);
        for k in keys(500, 11) {
            assert_eq!(a.owner(k), b.owner(k));
        }
    }

    /// Load spread: with 10k seeded keys and the default vnode count,
    /// every shard's share stays within ±35% of the fair share for
    /// 1..=8 shards. (The bound is loose enough to be seed-stable and
    /// tight enough to catch a broken hash or sort.)
    #[test]
    fn load_spread_within_bound_for_1_to_8_shards() {
        const KEYS: u64 = 10_000;
        let ids = keys(KEYS, 42);
        for n in 1u32..=8 {
            let shards: Vec<u32> = (0..n).collect();
            let ring = HashRing::new(&shards, DEFAULT_VNODES);
            let mut counts = vec![0u64; n as usize];
            for &k in &ids {
                counts[ring.owner(k).unwrap() as usize] += 1;
            }
            let fair = KEYS as f64 / n as f64;
            for (shard, &c) in counts.iter().enumerate() {
                let ratio = c as f64 / fair;
                assert!(
                    (0.65..=1.35).contains(&ratio),
                    "shard {shard}/{n}: {c} keys vs fair {fair:.0} (ratio {ratio:.3})"
                );
            }
        }
    }

    /// Join: going from N to N+1 shards moves at most ~K/N keys
    /// (with slack for hash variance), and every moved key moves *to*
    /// the joining shard — never between surviving shards.
    #[test]
    fn join_moves_at_most_k_over_n_keys_and_only_to_joiner() {
        const KEYS: u64 = 10_000;
        let ids = keys(KEYS, 1337);
        for n in 1u32..=7 {
            let before = HashRing::new(&(0..n).collect::<Vec<_>>(), DEFAULT_VNODES);
            let after = HashRing::new(&(0..=n).collect::<Vec<_>>(), DEFAULT_VNODES);
            let joiner = n;
            let mut moved = 0u64;
            for &k in &ids {
                let (a, b) = (before.owner(k).unwrap(), after.owner(k).unwrap());
                if a != b {
                    moved += 1;
                    assert_eq!(b, joiner, "key {k} moved {a}->{b}, not to joiner {joiner}");
                }
            }
            // Expected movement is K/(N+1); allow 1.5x slack for
            // vnode placement variance.
            let bound = (KEYS as f64 / (n + 1) as f64 * 1.5) as u64;
            assert!(
                moved <= bound,
                "join {n}->{}: moved {moved} > bound {bound}",
                n + 1
            );
        }
    }

    /// Leave: removing a shard moves exactly the keys it owned, and
    /// every moved key comes *from* the leaver.
    #[test]
    fn leave_moves_only_the_leavers_keys() {
        const KEYS: u64 = 10_000;
        let ids = keys(KEYS, 99);
        for n in 2u32..=8 {
            let before = HashRing::new(&(0..n).collect::<Vec<_>>(), DEFAULT_VNODES);
            let leaver = n - 1;
            let after = HashRing::new(&(0..leaver).collect::<Vec<_>>(), DEFAULT_VNODES);
            let mut moved = 0u64;
            for &k in &ids {
                let (a, b) = (before.owner(k).unwrap(), after.owner(k).unwrap());
                if a != b {
                    moved += 1;
                    assert_eq!(a, leaver, "key {k} moved {a}->{b} but {leaver} left");
                }
            }
            let bound = (KEYS as f64 / n as f64 * 1.5) as u64;
            assert!(moved <= bound, "leave of {leaver}: moved {moved} > {bound}");
        }
    }

    /// Route-around: filtering a dead shard reassigns exactly its keys,
    /// and owners revert when the shard comes back.
    #[test]
    fn owner_filtered_routes_around_dead_shard() {
        let ring = HashRing::new(&[0, 1, 2, 3], DEFAULT_VNODES);
        let ids = keys(2_000, 5);
        let mut rerouted = 0;
        for &k in &ids {
            let healthy = ring.owner(k).unwrap();
            let filtered = ring.owner_filtered(k, |s| s != 2).unwrap();
            assert_ne!(filtered, 2);
            if healthy == 2 {
                rerouted += 1;
            } else {
                assert_eq!(filtered, healthy, "live shard {healthy}'s key {k} moved");
            }
            // Recovery: with every shard alive again the original owner wins.
            assert_eq!(ring.owner_filtered(k, |_| true), Some(healthy));
        }
        assert!(rerouted > 0, "dead shard owned no keys in the sample");
    }

    #[test]
    fn all_shards_dead_yields_none() {
        let ring = HashRing::new(&[0, 1], 8);
        assert_eq!(ring.owner_filtered(7, |_| false), None);
    }
}
