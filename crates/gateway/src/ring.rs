//! Consistent-hash ring over shard indices.
//!
//! Each shard contributes `vnodes` points to a 64-bit hash circle; a key
//! is owned by the first point clockwise from its hash whose shard passes
//! the caller's liveness predicate. Virtual nodes smooth the load split
//! (with one point per shard, removing a shard would dump its whole arc
//! on a single successor), and walking past dead shards' points gives
//! deterministic failover: every key of a dead shard lands on the next
//! *live* point clockwise, and keys of live shards never move.
//!
//! Hashes are FNV-1a over little-endian field encodings, passed through
//! a splitmix64 finalizer — stable across processes and platforms, so a
//! gateway restart (or a second gateway in front of the same fleet)
//! routes identically.

use revelio_core::wire::fnv1a;
use revelio_graph::Target;

/// splitmix64 finalizer. Raw FNV-1a avalanches poorly on short,
/// structured inputs (sequential ids differ in few bits and land
/// clustered on the circle, skewing the load split badly); one mixing
/// round spreads them. Still fully deterministic and platform-stable.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// Hashes the explanation cache key `(model, graph_id, target)` onto the
/// ring circle. This is the same key shape the backend's artifact cache
/// and warm-start store use, so routing by it preserves locality: repeat
/// traffic for one instance always lands on the same live shard.
pub fn route_key(model: u32, graph_id: u64, target: Target) -> u64 {
    let mut buf = [0u8; 4 + 8 + 1 + 8];
    buf[0..4].copy_from_slice(&model.to_le_bytes());
    buf[4..12].copy_from_slice(&graph_id.to_le_bytes());
    match target {
        Target::Node(v) => {
            buf[12] = 0;
            buf[13..21].copy_from_slice(&(v as u64).to_le_bytes());
        }
        Target::Graph => buf[12] = 1,
    }
    mix(fnv1a(&buf))
}

/// A fixed shard set hashed onto a circle. The ring itself is immutable;
/// failover is expressed at lookup time through the liveness predicate,
/// so no rebuild (and no lock) is needed when a shard dies or recovers.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point hash, shard index)`, sorted by hash (ties broken by shard
    /// then vnode, via the construction order).
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    /// Builds a ring of `shards` shards with `vnodes` points each.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `vnodes` is zero (a gateway validates its
    /// config before building the ring).
    pub fn new(shards: usize, vnodes: usize) -> Ring {
        assert!(shards > 0, "ring needs at least one shard");
        assert!(vnodes > 0, "ring needs at least one vnode per shard");
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                let mut buf = [0u8; 8];
                buf[0..4].copy_from_slice(&(shard as u32).to_le_bytes());
                buf[4..8].copy_from_slice(&(vnode as u32).to_le_bytes());
                points.push((mix(fnv1a(&buf)), shard));
            }
        }
        // Sort by hash; on the (astronomically unlikely) equal hash, by
        // shard index so construction is deterministic.
        points.sort_unstable();
        Ring { points, shards }
    }

    /// Number of shards the ring was built over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key` among shards accepted by `ok`: the first
    /// point clockwise from `key` whose shard passes. Returns `None` when
    /// no shard passes.
    pub fn owner_where(&self, key: u64, ok: impl Fn(usize) -> bool) -> Option<usize> {
        let start = self.points.partition_point(|&(h, _)| h < key);
        let n = self.points.len();
        for i in 0..n {
            let (_, shard) = self.points[(start + i) % n];
            if ok(shard) {
                return Some(shard);
            }
        }
        None
    }

    /// The shard owning `key` among the shards marked `true` in `alive`.
    pub fn owner(&self, key: u64, alive: &[bool]) -> Option<usize> {
        self.owner_where(key, |s| alive.get(s).copied().unwrap_or(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Routing must agree across gateway versions (two gateways in front
    /// of one fleet, or a restart mid-traffic), so the hash values are
    /// pinned: these were recorded from the original private FNV-1a.
    #[test]
    fn route_keys_match_recorded_values() {
        assert_eq!(route_key(0, 0, Target::Node(0)), 0x3245_72b2_5ad7_924c);
        assert_eq!(
            route_key(3, 0xdead_beef, Target::Node(17)),
            0x774a_815f_2a67_ed03
        );
        assert_eq!(route_key(7, 42, Target::Graph), 0x8c44_4b4e_5f88_2755);
    }

    #[test]
    fn all_alive_routes_are_stable_and_in_range() {
        let ring = Ring::new(3, 64);
        let alive = [true, true, true];
        for k in 0..1000u64 {
            let key = route_key(0, k, Target::Node(k as usize));
            let a = ring.owner(key, &alive).expect("live shard");
            let b = ring.owner(key, &alive).expect("live shard");
            assert_eq!(a, b);
            assert!(a < 3);
        }
    }

    #[test]
    fn dead_shard_keys_move_and_live_shard_keys_stay() {
        let ring = Ring::new(3, 64);
        let all = [true, true, true];
        let without_1 = [true, false, true];
        let mut moved = 0;
        for k in 0..2000u64 {
            let key = route_key(1, k, Target::Graph);
            let before = ring.owner(key, &all).expect("live");
            let after = ring.owner(key, &without_1).expect("live");
            if before == 1 {
                assert_ne!(after, 1, "dead shard still owns a key");
                moved += 1;
            } else {
                assert_eq!(before, after, "a live shard's key moved");
            }
        }
        assert!(moved > 0, "shard 1 owned nothing out of 2000 keys");
    }

    #[test]
    fn vnodes_spread_load_roughly_evenly() {
        let ring = Ring::new(3, 64);
        let alive = [true, true, true];
        let mut counts = [0usize; 3];
        for k in 0..3000u64 {
            let key = route_key(0, k, Target::Node((k % 97) as usize));
            counts[ring.owner(key, &alive).expect("live")] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            // A perfectly even split is 1000 each; vnode smoothing should
            // keep every shard within a loose 2x band.
            assert!(
                (500..=2000).contains(&c),
                "shard {shard} got {c} of 3000 keys (counts: {counts:?})"
            );
        }
    }

    #[test]
    fn no_live_shard_yields_none() {
        let ring = Ring::new(2, 8);
        assert_eq!(ring.owner(42, &[false, false]), None);
    }

    #[test]
    fn route_key_distinguishes_fields() {
        let a = route_key(0, 7, Target::Node(3));
        assert_ne!(a, route_key(1, 7, Target::Node(3)));
        assert_ne!(a, route_key(0, 8, Target::Node(3)));
        assert_ne!(a, route_key(0, 7, Target::Node(4)));
        assert_ne!(a, route_key(0, 7, Target::Graph));
    }
}
