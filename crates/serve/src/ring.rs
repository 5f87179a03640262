//! Consistent-hash routing of content keys across store peers.
//!
//! The fleet shards its store tier by key: each 16-hex content key has
//! one *owning* `optimist-stored` daemon ([`HashRing::route`]) plus an
//! ordered **successor list** of replicas ([`HashRing::route_n`]), so
//! every serving daemon routes a given key's reads *and writes* to the
//! same replica chain — writes fan out in chain order, reads try the
//! owner first and fail over clockwise — and all serving daemons agree
//! on that chain without coordination.
//!
//! The structure is a classic **hash ring with virtual nodes**: each
//! peer label is hashed at [`HashRing::DEFAULT_VNODES`] points on a
//! `u64` circle; a key routes to the peer owning the first point at or
//! after the key's hash (wrapping), and its replicas are the next
//! *distinct* peers clockwise. Virtual nodes smooth the load
//! (tested: ±⅓ of fair share at 3 peers), and ring geometry makes
//! membership changes cheap: removing one of N peers remaps only the
//! keys that peer owned — ~1/N of the space — instead of reshuffling
//! everything, so a store-daemon death does not flush the whole fleet's
//! warm tier. The same geometry extends to replica sets: a surviving
//! peer's vnode points are byte-identical in the reduced ring, so every
//! key keeps all of its *surviving* replicas — only the dead peer's
//! slots move (both pinned by tests and proptests below).
//!
//! Everything is deterministic from the label list alone: same labels,
//! same routing, on every daemon, every process, every architecture.

use crate::cache::Fnv;
use std::fmt::{self, Write};

/// A deterministic consistent-hash ring over peer labels.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(position, peer index)`, sorted by position.
    points: Vec<(u64, usize)>,
    /// The peer labels, in construction order (the index space).
    labels: Vec<String>,
}

/// FNV-1a over the formatted `text` — the same hash the cache keys use,
/// fed without building the string — followed by a splitmix64 finalizer
/// so sequential vnode suffixes land far apart on the circle.
fn ring_hash(text: fmt::Arguments<'_>) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write_fmt(text).expect("hashing never fails");
    let mut hash = fnv.0;
    // splitmix64 finalizer: FNV alone clusters short suffix changes.
    hash = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash = (hash ^ (hash >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

impl HashRing {
    /// Virtual nodes per peer: enough to keep per-peer load within a
    /// third of fair share for small fleets without making construction
    /// or lookup noticeable.
    pub const DEFAULT_VNODES: usize = 128;

    /// Build a ring from peer labels with [`HashRing::DEFAULT_VNODES`]
    /// points per peer. Labels are typically `host:port` addresses;
    /// routing is a pure function of the label list.
    pub fn new<S: AsRef<str>>(labels: &[S]) -> HashRing {
        HashRing::with_vnodes(labels, HashRing::DEFAULT_VNODES)
    }

    /// Build a ring with an explicit virtual-node count (tests shrink
    /// it; production uses the default).
    pub fn with_vnodes<S: AsRef<str>>(labels: &[S], vnodes: usize) -> HashRing {
        let labels: Vec<String> = labels.iter().map(|l| l.as_ref().to_string()).collect();
        let mut points = Vec::with_capacity(labels.len() * vnodes);
        for (index, label) in labels.iter().enumerate() {
            for vnode in 0..vnodes {
                let point = ring_hash(format_args!("{label}#{vnode}"));
                points.push((point, index));
            }
        }
        // Position ties (hash collisions across labels) resolve by peer
        // index — still deterministic.
        points.sort_unstable();
        HashRing { points, labels }
    }

    /// The peer index owning `key`: hash the key's canonical 16-hex
    /// spelling onto the circle, take the first point at or after it
    /// (wrapping past the top).
    ///
    /// # Panics
    ///
    /// Panics on an empty ring — a sharded tier with zero peers is a
    /// construction bug, not a runtime state.
    pub fn route(&self, key: u64) -> usize {
        assert!(!self.points.is_empty(), "routing on an empty ring");
        let position = ring_hash(format_args!("{key:016x}"));
        let at = self.points.partition_point(|&(p, _)| p < position);
        let (_, index) = self.points[at % self.points.len()];
        index
    }

    /// The first `r` *distinct* peers clockwise from `key`'s position:
    /// the key's replica chain, owner first. `r` is clamped to the peer
    /// count, so `route_n(key, 1)[0] == route(key)` and asking for more
    /// replicas than peers returns every peer exactly once.
    ///
    /// Chain order is the clockwise walk order, which is what makes the
    /// chain stable under membership changes: a departed peer's vnode
    /// points vanish but every other point is unchanged, so survivors
    /// keep their relative order in every chain — a key never trades
    /// one surviving replica for another.
    ///
    /// # Panics
    ///
    /// Panics on an empty ring or `r == 0` — both are construction
    /// bugs, not runtime states.
    pub fn route_n(&self, key: u64, r: usize) -> Vec<usize> {
        assert!(!self.points.is_empty(), "routing on an empty ring");
        assert!(r > 0, "a replica chain needs at least one peer");
        let want = r.min(self.labels.len());
        let position = ring_hash(format_args!("{key:016x}"));
        let start = self.points.partition_point(|&(p, _)| p < position);
        let mut chain = Vec::with_capacity(want);
        for offset in 0..self.points.len() {
            let (_, index) = self.points[(start + offset) % self.points.len()];
            if !chain.contains(&index) {
                chain.push(index);
                if chain.len() == want {
                    break;
                }
            }
        }
        chain
    }

    /// The peer labels, in index order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the ring has no peers.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Total points on the circle (peers × virtual nodes).
    pub fn point_count(&self) -> usize {
        self.points.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> impl Iterator<Item = u64> {
        // Spread sample keys over the space the cache produces (FNV
        // outputs): splitmix over a counter is a fine stand-in.
        (0..n).map(|i| {
            let mut x = i
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x1234_5678);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^ (x >> 27)
        })
    }

    #[test]
    fn placement_is_pinned() {
        // Every daemon of a fleet, whatever its version, must put a key on
        // the same replica chain, so these chains never change.
        let ring = HashRing::new(&["127.0.0.1:47301", "127.0.0.1:47302", "127.0.0.1:47303"]);
        let chains: Vec<String> = keys(48)
            .map(|k| ring.route_n(k, 2).iter().map(|p| p.to_string()).collect())
            .collect();
        assert_eq!(
            chains.join(" "),
            "20 02 10 20 10 21 12 10 01 01 10 12 02 01 10 20 01 02 20 21 21 01 02 02 \
             20 20 02 20 10 02 10 02 01 12 10 10 21 12 01 10 02 21 10 10 02 01 01 01"
        );
    }

    #[test]
    fn routing_is_deterministic_across_constructions() {
        let a = HashRing::new(&["10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"]);
        let b = HashRing::new(&["10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"]);
        for key in keys(1000) {
            assert_eq!(a.route(key), b.route(key));
        }
    }

    #[test]
    fn distribution_is_balanced_within_a_third_of_fair_share() {
        let peers = ["s0", "s1", "s2", "s3"];
        let ring = HashRing::new(&peers);
        let mut counts = [0u64; 4];
        let total = 40_000u64;
        for key in keys(total) {
            counts[ring.route(key)] += 1;
        }
        let fair = total / peers.len() as u64;
        for (peer, &count) in counts.iter().enumerate() {
            assert!(
                count > fair - fair / 3 && count < fair + fair / 3,
                "peer {peer} got {count} of {total} (fair {fair}): vnodes are not smoothing"
            );
        }
    }

    #[test]
    fn removing_one_peer_remaps_only_its_own_share() {
        let full = HashRing::new(&["s0", "s1", "s2", "s3", "s4"]);
        // Drop s4; survivors keep their labels (and their ring points).
        let reduced = HashRing::new(&["s0", "s1", "s2", "s3"]);
        let total = 40_000u64;
        let mut moved = 0u64;
        for key in keys(total) {
            let before = full.route(key);
            let after = reduced.route(key);
            if before == 4 {
                // Keys the dead peer owned must land somewhere else.
                continue;
            }
            // Labels 0..=3 share indices across both rings.
            if before != after {
                moved += 1;
            }
        }
        // Ideal: zero keys move besides the dead peer's ~1/5. Ring
        // geometry achieves exactly zero — surviving peers' points are
        // identical in both rings.
        assert_eq!(
            moved, 0,
            "keys owned by surviving peers must not remap when another peer leaves"
        );
        // And the dead peer's share was about 1/5 of the space.
        let orphaned = keys(total).filter(|&k| full.route(k) == 4).count() as u64;
        let fair = total / 5;
        assert!(
            orphaned > fair / 2 && orphaned < fair * 2,
            "dead peer owned {orphaned}, expected near {fair}"
        );
    }

    #[test]
    fn replica_chains_start_at_the_owner_and_stay_distinct() {
        let ring = HashRing::new(&["s0", "s1", "s2", "s3"]);
        for key in keys(1000) {
            let chain = ring.route_n(key, 2);
            assert_eq!(chain.len(), 2);
            assert_eq!(chain[0], ring.route(key));
            assert_ne!(chain[0], chain[1]);
        }
    }

    #[test]
    fn replica_count_clamps_to_the_peer_count() {
        let ring = HashRing::new(&["s0", "s1"]);
        for key in keys(100) {
            let chain = ring.route_n(key, 3);
            assert_eq!(chain.len(), 2, "two peers can hold at most two replicas");
            let mut sorted = chain.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1], "a clamped chain covers every peer once");
        }
        let solo = HashRing::new(&["only"]);
        assert_eq!(solo.route_n(7, 3), vec![0]);
    }

    #[test]
    fn removing_one_peer_keeps_every_surviving_replica() {
        // The replica-set analogue of the zero-remap test above: drop
        // s4 and require that every key's chain keeps its surviving
        // members, in order — only slots held by the dead peer move.
        let full = HashRing::new(&["s0", "s1", "s2", "s3", "s4"]);
        let reduced = HashRing::new(&["s0", "s1", "s2", "s3"]);
        for key in keys(10_000) {
            let before = full.route_n(key, 2);
            let after = reduced.route_n(key, 2);
            let survivors: Vec<usize> = before.iter().copied().filter(|&p| p != 4).collect();
            assert_eq!(
                &after[..survivors.len()],
                &survivors[..],
                "key {key:016x} traded a surviving replica when s4 left"
            );
            for &p in &after[survivors.len()..] {
                assert!(
                    !before.contains(&p),
                    "replacement replicas must be new peers"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Satellite invariant, generalized: for any ring size, any
        /// replication factor r ∈ {1,2,3}, any vnode count, and any
        /// departed peer, every key's chain keeps its surviving
        /// replicas in order; only the dead peer's slots are refilled,
        /// and always by peers that were not already in the chain.
        #[test]
        fn route_n_preserves_surviving_replicas_under_any_peer_death(
            n in 2usize..=6,
            r in 1usize..=3,
            dead_seed in proptest::arbitrary::any::<u64>(),
            vnodes in 8usize..=96,
        ) {
            let dead = (dead_seed % n as u64) as usize;
            let labels: Vec<String> = (0..n).map(|i| format!("10.0.0.{i}:7000")).collect();
            let surviving: Vec<String> = labels
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != dead)
                .map(|(_, l)| l.clone())
                .collect();
            let full = HashRing::with_vnodes(&labels, vnodes);
            let reduced = HashRing::with_vnodes(&surviving, vnodes);
            for key in keys(400) {
                let before = full.route_n(key, r);
                // Map reduced-ring indices back into the full index space.
                let after: Vec<usize> = reduced
                    .route_n(key, r)
                    .into_iter()
                    .map(|j| if j < dead { j } else { j + 1 })
                    .collect();
                proptest::prop_assert_eq!(after.len(), r.min(n - 1));
                let survivors: Vec<usize> =
                    before.iter().copied().filter(|&p| p != dead).collect();
                let keep = survivors.len().min(after.len());
                proptest::prop_assert_eq!(
                    &after[..keep],
                    &survivors[..keep],
                    "ring of {} (vnodes {}), r {}, dead peer {}: chain swapped a survivor",
                    n, vnodes, r, dead
                );
                for &p in &after[keep..] {
                    proptest::prop_assert!(
                        !before.contains(&p),
                        "refilled slot reused a peer already in the chain"
                    );
                }
            }
        }

        /// Chain shape invariants for arbitrary keys: owner-first,
        /// all-distinct, length clamped to the peer count.
        #[test]
        fn route_n_chains_are_owner_first_distinct_and_clamped(
            n in 1usize..=6,
            r in 1usize..=3,
            key in proptest::arbitrary::any::<u64>(),
        ) {
            let labels: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
            let ring = HashRing::with_vnodes(&labels, 32);
            let chain = ring.route_n(key, r);
            proptest::prop_assert_eq!(chain.len(), r.min(n));
            proptest::prop_assert_eq!(chain[0], ring.route(key));
            let mut sorted = chain.clone();
            sorted.sort_unstable();
            sorted.dedup();
            proptest::prop_assert_eq!(sorted.len(), chain.len(), "chain repeats a peer");
        }
    }

    #[test]
    fn a_single_peer_owns_everything() {
        let ring = HashRing::new(&["only"]);
        for key in keys(100) {
            assert_eq!(ring.route(key), 0);
        }
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.point_count(), HashRing::DEFAULT_VNODES);
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn empty_rings_refuse_to_route() {
        let ring = HashRing::with_vnodes::<&str>(&[], 8);
        let _ = ring.route(1);
    }
}
