//! The shelf data model and the [`Shelves`] backend trait.
//!
//! A *shelf* is what one storage node keeps per item: which server
//! holds which sealed share of which generation. `dh_replica` mutates
//! shelves through exactly five verbs — [`Shelves::park`],
//! [`Shelves::commit`], [`Shelves::unpark`], [`Shelves::remove`] and
//! [`Shelves::retire`] — and reads them through the materialized
//! [`Shelves::map`]. Both backends keep the map in memory;
//! [`crate::FileShelves`] additionally appends every verb to the WAL
//! *before* applying it, which is the whole crash-consistency story:
//! the readable state is always replayable from the records that made
//! it to disk, and a torn tail simply rolls the map back to the last
//! record boundary.

use bytes::Bytes;
use cd_core::point::Point;
use dh_erasure::{open_shared, seal, Share, ShareHeader};
use dh_proto::engine::ShareView;
use dh_proto::node::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// One placed share: which server holds it, of which item generation,
/// in the sealed rest form (`header ‖ payload`, see
/// [`dh_erasure::header`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Holder {
    /// The server shelving the share.
    pub node: NodeId,
    /// The item generation this share encodes (duplicated out of the
    /// sealed header so generation scans don't re-parse every blob).
    pub version: u32,
    /// The share at rest: sealed, exactly as it travels the wire and
    /// lands in the WAL.
    pub sealed: Bytes,
}

impl Holder {
    /// Seal `share` under `header` for `node`'s shelf. The holder's
    /// `version` is taken from the header so the two cannot disagree.
    pub fn seal(node: NodeId, header: ShareHeader, share: &Share) -> Holder {
        Holder { node, version: header.version, sealed: seal(header, share) }
    }

    /// The share back out of the sealed form (zero-copy window into
    /// the blob). `None` if the blob is damaged or its header
    /// disagrees with the holder's version.
    pub fn share(&self) -> Option<Share> {
        let (header, share) = open_shared(&self.sealed).ok()?;
        (header.version == self.version).then_some(share)
    }
}

/// Everything a shelf knows about one item.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ItemState {
    /// The hashed location `h(key)` (fixed at first store).
    pub point: Point,
    /// The newest **committed** generation — the one reads serve.
    /// Parked shares of newer generations stay invisible until their
    /// commit record lands.
    pub version: u32,
    /// Share index → holder. `BTreeMap` so every scan over the
    /// placement is deterministic (repair and compaction iterate it).
    pub holders: BTreeMap<u8, Holder>,
}

impl ItemState {
    /// The intact shares of generation `version`, in index order.
    /// Damaged blobs are skipped — they count against the quorum, not
    /// against the read.
    pub fn shares_of(&self, version: u32) -> Vec<Share> {
        self.holders
            .values()
            .filter(|h| h.version == version)
            .filter_map(Holder::share)
            .collect()
    }
}

/// Why a shelf read failed — the typed split callers need to react
/// correctly: a [`ShelfError::Missing`] item is an answer, a
/// [`ShelfError::Corrupt`] one is an integrity incident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShelfError {
    /// No such item (never stored, or removed).
    Missing,
    /// The lookup never reached a live cover — a routing failure, not
    /// a storage verdict.
    Unreachable,
    /// The item exists but damaged blobs pushed the newest generation
    /// below its reconstruction threshold.
    Corrupt {
        /// Intact shares of the served generation that were found.
        intact: usize,
        /// Blobs that failed to open (bad seal, truncated, mismatched
        /// header).
        damaged: usize,
        /// The reconstruction threshold `k`.
        needed: usize,
    },
    /// The item exists and nothing is damaged, but fewer than `k`
    /// live covers hold a share of the served generation.
    UnderQuorum {
        /// Intact shares found.
        intact: usize,
        /// The reconstruction threshold `k`.
        needed: usize,
    },
}

impl fmt::Display for ShelfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShelfError::Missing => write!(f, "no such item"),
            ShelfError::Unreachable => write!(f, "no live cover reachable"),
            ShelfError::Corrupt { intact, damaged, needed } => write!(
                f,
                "corrupt shelf: {intact} intact + {damaged} damaged shares, {needed} needed"
            ),
            ShelfError::UnderQuorum { intact, needed } => {
                write!(f, "under quorum: {intact} of {needed} shares live")
            }
        }
    }
}

impl std::error::Error for ShelfError {}

/// The storage backend beneath the replicated store: the five shelf
/// mutation verbs plus the materialized read view. `dh_replica` is
/// written against this trait, so the in-memory [`MemShelves`] and the
/// WAL-backed [`crate::FileShelves`] are interchangeable under the
/// same protocol code — same placements, same traces, same
/// fingerprints.
///
/// The mutation verbs mirror the §6.2 write discipline: a put is
/// `park ×placed` then `commit` (the **atomic write sequence** — share
/// records first, the commit record last, so an interruption anywhere
/// leaves the previous generation the readable one).
pub trait Shelves {
    /// The materialized key → item view (both backends keep it in
    /// memory; the file backend rebuilds it from the WAL on open).
    fn map(&self) -> &BTreeMap<u64, ItemState>;

    /// Shelve one sealed share: insert `holder` at `idx` of `key`
    /// (creating the item at `point` if new), *without* advancing the
    /// readable generation.
    fn park(&mut self, key: u64, point: Point, idx: u8, holder: Holder);

    /// Advance (or, from repair's rollback, rewind) the readable
    /// generation of `key`. A commit for an unknown key is a no-op —
    /// on the file backend that happens when every park record of the
    /// sequence was damaged on disk.
    fn commit(&mut self, key: u64, version: u32);

    /// Drop the holder at `idx` of `key` (repair garbage-collecting a
    /// share index outside the current clique).
    fn unpark(&mut self, key: u64, idx: u8);

    /// Forget the item entirely. Returns whether it existed.
    fn remove(&mut self, key: u64) -> bool;

    /// Drop every share held by `node` (it left; its shelf goes with
    /// it). Returns the keys that lost a share, in key order — repair
    /// uses this to know exactly which items the leaver impoverished
    /// without rescanning the whole map.
    fn retire(&mut self, node: NodeId) -> Vec<u64>;

    /// [`Self::retire`] with the `(key, idx)` shelf slots of `node`
    /// already known (the replica layer keeps a holder index), so the
    /// backend touches only those items instead of scanning the map.
    /// `hints` must be sorted and **complete** — every slot `node`
    /// holds — or the retire leaves stragglers behind; slots that
    /// don't actually hold a share of `node` are skipped. The default
    /// implementation ignores the hints and scans.
    fn retire_hinted(&mut self, node: NodeId, hints: &[(u64, u8)]) -> Vec<u64> {
        let _ = hints;
        self.retire(node)
    }

    /// Number of items shelved.
    fn items(&self) -> usize {
        self.map().len()
    }

    /// Total shares currently on shelves (leak/repair observability).
    fn shelved_shares(&self) -> usize {
        self.map().values().map(|it| it.holders.len()).sum()
    }

    /// Does `node` hold anything at all? (Lets the file backend skip
    /// the retire record for share-less leavers.)
    fn holds(&self, node: NodeId) -> bool {
        self.map().values().any(|it| it.holders.values().any(|h| h.node == node))
    }
}

/// The RAM backend: the plain map, mutated in place. This is PR 5's
/// shelf behavior, factored behind the trait.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemShelves {
    map: BTreeMap<u64, ItemState>,
}

impl MemShelves {
    /// An empty shelf set.
    pub fn new() -> Self {
        MemShelves::default()
    }

    /// [`Shelves::park`], reporting what it displaced — whether the
    /// item was created, and the holder previously at `idx` — so the
    /// file backend's live-size accounting needs no lookups of its own.
    pub(crate) fn park_replacing(
        &mut self,
        key: u64,
        point: Point,
        idx: u8,
        holder: Holder,
    ) -> (bool, Option<Holder>) {
        let mut created = false;
        let item = self.map.entry(key).or_insert_with(|| {
            created = true;
            ItemState { point, version: 0, holders: BTreeMap::new() }
        });
        (created, item.holders.insert(idx, holder))
    }
}

impl Shelves for MemShelves {
    fn map(&self) -> &BTreeMap<u64, ItemState> {
        &self.map
    }

    fn park(&mut self, key: u64, point: Point, idx: u8, holder: Holder) {
        self.park_replacing(key, point, idx, holder);
    }

    fn commit(&mut self, key: u64, version: u32) {
        if let Some(item) = self.map.get_mut(&key) {
            item.version = version;
        }
    }

    fn unpark(&mut self, key: u64, idx: u8) {
        if let Some(item) = self.map.get_mut(&key) {
            item.holders.remove(&idx);
        }
    }

    fn remove(&mut self, key: u64) -> bool {
        self.map.remove(&key).is_some()
    }

    fn retire(&mut self, node: NodeId) -> Vec<u64> {
        let mut touched = Vec::new();
        for (key, item) in self.map.iter_mut() {
            let before = item.holders.len();
            item.holders.retain(|_, h| h.node != node);
            if item.holders.len() != before {
                touched.push(*key);
            }
        }
        touched
    }

    fn retire_hinted(&mut self, node: NodeId, hints: &[(u64, u8)]) -> Vec<u64> {
        let mut touched = Vec::new();
        for &(key, idx) in hints {
            if let Some(item) = self.map.get_mut(&key) {
                if item.holders.get(&idx).is_some_and(|h| h.node == node) {
                    item.holders.remove(&idx);
                    if touched.last() != Some(&key) {
                        touched.push(key);
                    }
                }
            }
        }
        debug_assert!(!self.holds(node), "incomplete retire hints for {node:?}");
        touched
    }
}

/// Replay one WAL record through a [`Shelves`] backend — the shared
/// recovery path: [`crate::FileShelves::open`] rebuilds its map with
/// exactly this function, so a file-backed reopen and an in-memory
/// replay of the same record prefix cannot disagree. Returns `false`
/// for a `Park` whose sealed blob has no parseable header (belt and
/// braces — the CRC already vouched for the bytes).
pub fn apply_record(rec: &crate::wal::WalRecord, shelves: &mut impl Shelves) -> bool {
    use crate::wal::WalRecord;
    match rec {
        WalRecord::Park { key, point, node, idx, sealed } => {
            let Ok((header, _)) = open_shared(sealed) else {
                return false;
            };
            let holder =
                Holder { node: *node, version: header.version, sealed: sealed.clone() };
            shelves.park(*key, *point, *idx, holder);
        }
        WalRecord::Commit { key, version } => shelves.commit(*key, *version),
        WalRecord::Remove { key } => {
            shelves.remove(*key);
        }
        WalRecord::Retire { node } => {
            shelves.retire(*node);
        }
        WalRecord::Unpark { key, idx } => shelves.unpark(*key, *idx),
    }
    true
}

/// The engine's read-only window into a shelf backend: answers
/// [`dh_proto::wire::Wire::FetchShare`] probes with the share a node
/// holds of the **committed generation only**, whatever its index, so
/// a quorum completion always means `k` distinct same-version shares —
/// and a parked (uncommitted) generation can never satisfy a read.
/// This is the seam that wires any [`Shelves`] backend beneath
/// `dh_proto`'s event engine
/// ([`dh_proto::engine::Engine::run_with_shares`]).
pub struct ShelfView<'a, S: Shelves>(pub &'a S);

impl<S: Shelves> ShareView for ShelfView<'_, S> {
    fn share_of(&self, node: NodeId, key: u64) -> Option<(u8, u32)> {
        let item = self.0.map().get(&key)?;
        item.holders
            .iter()
            .find(|(_, h)| h.node == node && h.version == item.version)
            .map(|(&idx, h)| (idx, h.sealed.len() as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dh_erasure::encode;

    fn holder(node: u32, version: u32, payload: &[u8]) -> Holder {
        let shares = encode(payload, 2, 4);
        let header = ShareHeader { version, index: 0, k: 2, m: 4 };
        Holder::seal(NodeId(node), header, &shares[0])
    }

    #[test]
    fn park_commit_discipline_gates_visibility() {
        let mut mem = MemShelves::new();
        let p = Point(42);
        mem.park(7, p, 0, holder(1, 1, b"gen one"));
        mem.park(7, p, 1, holder(2, 1, b"gen one"));
        // parked but uncommitted: version still 0, nothing served
        assert_eq!(mem.map()[&7].version, 0);
        assert_eq!(view_idx(&mem, 1, 7), None, "uncommitted share served");
        mem.commit(7, 1);
        // each node is answered with the index it holds
        assert_eq!(view_idx(&mem, 1, 7), Some(0));
        assert_eq!(view_idx(&mem, 2, 7), Some(1));
        // a node holding nothing, or another key, stays invisible
        assert_eq!(view_idx(&mem, 3, 7), None);
        assert_eq!(view_idx(&mem, 1, 8), None);
    }

    fn view_idx(mem: &MemShelves, node: u32, key: u64) -> Option<u8> {
        ShelfView(mem).share_of(NodeId(node), key).map(|(idx, _)| idx)
    }

    #[test]
    fn retire_unpark_remove_clean_up() {
        let mut mem = MemShelves::new();
        let p = Point(9);
        for idx in 0..4u8 {
            mem.park(1, p, idx, holder(10 + idx as u32, 1, b"x"));
        }
        mem.commit(1, 1);
        assert_eq!(mem.shelved_shares(), 4);
        assert!(mem.holds(NodeId(11)));
        mem.retire(NodeId(11));
        assert!(!mem.holds(NodeId(11)));
        assert_eq!(mem.shelved_shares(), 3);
        mem.unpark(1, 0);
        assert_eq!(mem.shelved_shares(), 2);
        assert!(mem.remove(1));
        assert!(!mem.remove(1), "double remove is a no-op");
        assert_eq!(mem.items(), 0);
    }

    #[test]
    fn holder_roundtrips_its_share() {
        let shares = encode(b"payload", 2, 3);
        let header = ShareHeader { version: 5, index: 1, k: 2, m: 3 };
        let h = Holder::seal(NodeId(3), header, &shares[1]);
        let back = h.share().expect("intact blob opens");
        assert_eq!(back.index, 1);
        assert_eq!(back.data, shares[1].data);
        // a damaged blob yields None, not a panic
        let mut bad = h.sealed.to_vec();
        bad[0] ^= 0xFF;
        let damaged = Holder { node: NodeId(3), version: 5, sealed: Bytes::from(bad) };
        assert!(damaged.share().is_none());
    }
}
