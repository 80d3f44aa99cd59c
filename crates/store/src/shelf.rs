//! The shelf data model and the [`Shelves`] backend trait.
//!
//! A *shelf* is what one storage node keeps per item: which server
//! holds which sealed share of which generation. `dh_replica` mutates
//! shelves through exactly five verbs — [`Shelves::park`],
//! [`Shelves::commit`], [`Shelves::unpark`], [`Shelves::remove`] and
//! [`Shelves::retire_hinted`] (whose scanning form is
//! [`Shelves::retire`]) — and reads them through the materialized
//! [`Shelves::map`]. Both backends keep the map in memory;
//! [`crate::FileShelves`] additionally appends every verb to the WAL
//! *before* applying it, which is the whole crash-consistency story:
//! the readable state is always replayable from the records that made
//! it to disk, and a torn tail simply rolls the map back to the last
//! record boundary.
//!
//! An item's holders are one [`Holders`] array indexed by share index,
//! so every scan over a placement (repair, compaction, the read view)
//! runs in ascending index and is deterministic.

use bytes::Bytes;
use cd_core::point::Point;
use dh_erasure::{open_shared, seal, Share, ShareHeader};
use dh_proto::engine::ShareView;
use dh_proto::node::NodeId;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

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

/// Every share index, so [`Holders`] can lend its keys as `&u8` the
/// way a map does.
static INDICES: [u8; 256] = {
    let mut all = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        all[i] = i as u8;
        i += 1;
    }
    all
};

/// One item's holders, addressed by share index: slot `i` holds share
/// `i`'s holder, or nothing. The array is sized once, to the `m` the
/// first parked share's header carries, so a placed item pays `m`
/// 32-byte slots in one allocation. A later share past the end (its
/// header damaged, or naming a larger `m`) grows it to exactly what
/// that share needs. Iteration runs in ascending index, and two
/// arrays are equal (and print alike) when they hold the same
/// (index, holder) pairs, however many empty slots either keeps.
#[derive(Clone, Default)]
pub struct Holders {
    slots: Box<[Option<Holder>]>,
}

impl Holders {
    /// The holder of share `idx`, if any.
    pub fn get(&self, idx: &u8) -> Option<&Holder> {
        self.slots.get(usize::from(*idx))?.as_ref()
    }

    /// Put `holder` at share `idx`, returning the one it replaces.
    pub fn insert(&mut self, idx: u8, holder: Holder) -> Option<Holder> {
        let at = usize::from(idx);
        if at >= self.slots.len() {
            let m = open_shared(&holder.sealed).map_or(0, |(header, _)| usize::from(header.m));
            let len = m.max(at + 1);
            // exactly `len` slots: no spare room, and no second copy
            // when the vector becomes a boxed slice
            let mut slots = Vec::with_capacity(len);
            slots.extend(std::mem::take(&mut self.slots).into_vec());
            slots.resize(len, None);
            self.slots = slots.into_boxed_slice();
        }
        self.slots[at].replace(holder)
    }

    /// Take the holder of share `idx` out; its slot stays.
    pub fn remove(&mut self, idx: &u8) -> Option<Holder> {
        self.slots.get_mut(usize::from(*idx))?.take()
    }

    /// Number of holders.
    pub fn len(&self) -> usize {
        self.values().count()
    }

    /// Whether no share is held.
    pub fn is_empty(&self) -> bool {
        self.values().next().is_none()
    }

    /// The `(index, holder)` pairs in ascending index.
    pub fn iter(&self) -> HoldersIter<'_> {
        HoldersIter { slots: INDICES.iter().zip(self.slots.iter()) }
    }

    /// The held share indices, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &u8> + '_ {
        self.iter().map(|(idx, _)| idx)
    }

    /// The holders in ascending index.
    pub fn values(&self) -> impl Iterator<Item = &Holder> + '_ {
        self.slots.iter().flatten()
    }

    /// The holders in ascending index, mutably.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut Holder> + '_ {
        self.slots.iter_mut().flatten()
    }

    /// How many slots the array has room for, held or not.
    #[doc(hidden)]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// The iterator of [`Holders::iter`].
pub struct HoldersIter<'a> {
    slots: std::iter::Zip<std::slice::Iter<'static, u8>, std::slice::Iter<'a, Option<Holder>>>,
}

impl<'a> Iterator for HoldersIter<'a> {
    type Item = (&'a u8, &'a Holder);

    fn next(&mut self) -> Option<Self::Item> {
        self.slots.find_map(|(idx, slot)| Some((idx, slot.as_ref()?)))
    }
}

impl<'a> IntoIterator for &'a Holders {
    type Item = (&'a u8, &'a Holder);
    type IntoIter = HoldersIter<'a>;

    fn into_iter(self) -> HoldersIter<'a> {
        self.iter()
    }
}

impl Index<&u8> for Holders {
    type Output = Holder;

    /// The holder of share `idx`. Panics if none is held.
    fn index(&self, idx: &u8) -> &Holder {
        self.get(idx).expect("no holder at this share index")
    }
}

impl PartialEq for Holders {
    fn eq(&self, other: &Holders) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Holders {}

impl fmt::Debug for Holders {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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
    /// Share index → holder, one slot per index of the item's code.
    /// Scans run in ascending index, so repair and compaction iterate
    /// a placement deterministically.
    pub holders: Holders,
}

// What an item costs the shelves: a slot is a `Holder` with the
// `Bytes` pointer as its `None` niche, and the item is its point, its
// version and the boxed slots. Growing either moves every workload's
// resident bill.
const _: () = assert!(std::mem::size_of::<Option<Holder>>() == 32);
const _: () = assert!(std::mem::size_of::<ItemState>() == 32);

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
    /// it): scans the map for its slots and retires them through
    /// [`Self::retire_hinted`].
    fn retire(&mut self, node: NodeId) {
        let slots: Vec<(u64, u8)> = self
            .map()
            .iter()
            .flat_map(|(&key, item)| {
                let held = item.holders.iter().filter(move |(_, h)| h.node == node);
                held.map(move |(&idx, _)| (key, idx))
            })
            .collect();
        self.retire_hinted(node, &slots);
    }

    /// [`Self::retire`] with the `(key, idx)` shelf slots of `node`
    /// already known (the replica layer finds them through its arc
    /// index), so the backend touches only those items instead of
    /// scanning the map. `hints` must be sorted and **complete** —
    /// every slot `node` holds — or the retire leaves stragglers
    /// behind; slots that don't actually hold a share of `node` are
    /// skipped. Empty hints retire nothing.
    fn retire_hinted(&mut self, node: NodeId, hints: &[(u64, u8)]);

    /// Number of items shelved.
    fn items(&self) -> usize {
        self.map().len()
    }

    /// Total shares currently on shelves (leak/repair observability).
    fn shelved_shares(&self) -> usize {
        self.map().values().map(|it| it.holders.len()).sum()
    }

    /// Does `node` hold anything at all? (The memory backend checks
    /// retire hints for completeness with it in debug builds.)
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
            ItemState { point, version: 0, holders: Holders::default() }
        });
        (created, item.holders.insert(idx, holder))
    }

    /// Copy each item's sealed shares into one buffer of its own, in
    /// index order — the layout a put leaves — so no share is left a
    /// window into a larger buffer (the recovered log, on open).
    pub(crate) fn rehome_shares(&mut self) {
        for item in self.map.values_mut() {
            let len = item.holders.values().map(|h| h.sealed.len()).sum();
            let mut own = Vec::with_capacity(len);
            for h in item.holders.values() {
                own.extend_from_slice(&h.sealed);
            }
            let own = Bytes::from(own);
            let mut at = 0;
            for h in item.holders.values_mut() {
                let end = at + h.sealed.len();
                h.sealed = own.slice(at..end);
                at = end;
            }
        }
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

    fn retire_hinted(&mut self, node: NodeId, hints: &[(u64, u8)]) {
        for &(key, idx) in hints {
            if let Some(item) = self.map.get_mut(&key) {
                if item.holders.get(&idx).is_some_and(|h| h.node == node) {
                    item.holders.remove(&idx);
                }
            }
        }
        debug_assert!(!self.holds(node), "incomplete retire hints for {node:?}");
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
/// ([`dh_proto::engine::Engine::run`]).
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
    fn a_read_is_answered_with_the_lowest_committed_index() {
        use dh_erasure::try_decode;
        let (k, m) = (2u8, 4u8);
        let mut mem = MemShelves::new();
        let p = Point(5);
        // generation 1 on nodes 1, 2, 3, 2: node 2 holds shares 1 and
        // 3, as after a hand-off
        let v1 = encode(b"committed", usize::from(k), usize::from(m));
        for (idx, node) in [1, 2, 3, 2].into_iter().enumerate() {
            let header = ShareHeader { version: 1, index: idx as u8, k, m };
            mem.park(7, p, idx as u8, Holder::seal(NodeId(node), header, &v1[idx]));
        }
        mem.commit(7, 1);
        // generation 2 parks share 0 on node 2, uncommitted
        let v2 = encode(b"torn", usize::from(k), usize::from(m));
        let header = ShareHeader { version: 2, index: 0, k, m };
        mem.park(7, p, 0, Holder::seal(NodeId(2), header, &v2[0]));
        // node 2 answers with its lower committed index, never the
        // parked share below it; node 1's share was overwritten
        assert_eq!(view_idx(&mem, 2, 7), Some(1));
        assert_eq!(view_idx(&mem, 3, 7), Some(2));
        assert_eq!(view_idx(&mem, 1, 7), None);
        // and the indices the replies name decode the committed value,
        // filtered as the replicated store's reconstruction filters
        let item = &mem.map()[&7];
        let shares: Vec<Share> = [2, 3]
            .iter()
            .filter_map(|&node| view_idx(&mem, node, 7))
            .filter_map(|idx| item.holders.get(&idx))
            .filter(|h| h.version == item.version)
            .filter_map(Holder::share)
            .collect();
        assert_eq!(shares.iter().map(|s| s.index).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(try_decode(&shares, usize::from(k)).unwrap(), b"committed");
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
