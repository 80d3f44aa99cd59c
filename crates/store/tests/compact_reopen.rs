//! Auto-compaction must not lose the record that triggered it.
//!
//! `compact` writes its image from the in-memory map, so it has to run
//! *after* the verb whose append crossed the threshold has applied its
//! record — otherwise the image holds the pre-record state and the
//! record is discarded with the old log: an acknowledged put reads one
//! generation behind after a reopen, a remove/unpark/retire comes
//! back. Every check here is a plain drop-and-[`FileShelves::open`]
//! against a [`MemShelves`] shadow, with no repair pass in between.
//!
//! Nor may a compaction that *fails* lose anything: the old log stays
//! the log of record until the rename, so the store keeps serving on
//! it — buffered parks included — and the failure is reported, not
//! swallowed.

use cd_core::point::Point;
use dh_erasure::{decode, encode, ShareHeader};
use dh_proto::node::NodeId;
use dh_store::{FileShelves, Holder, MemShelves, ScratchPath, Shelves};

const M: usize = 4;
const K: usize = 2;

fn payload(key: u64, version: u32) -> Vec<u8> {
    (0..2048u32).map(|i| (key as u8) ^ (version as u8).wrapping_mul(31) ^ (i as u8)).collect()
}

fn node_of(key: u64, idx: usize) -> NodeId {
    NodeId((key as u32) * 8 + idx as u32)
}

/// Park every share of generation `version`; no commit.
fn park_all(shelves: &mut impl Shelves, key: u64, version: u32) {
    for (idx, share) in encode(&payload(key, version), K, M).iter().enumerate() {
        let header = ShareHeader { version, index: idx as u8, k: K as u8, m: M as u8 };
        let holder = Holder::seal(node_of(key, idx), header, share);
        shelves.park(key, Point(key << 32), idx as u8, holder);
    }
}

/// One put with the replicated store's discipline: park every share,
/// commit last.
fn put(shelves: &mut impl Shelves, key: u64, version: u32) {
    park_all(shelves, key, version);
    shelves.commit(key, version);
}

/// `got` must equal the shadow — compared by shape first (key →
/// version, slot → holder/generation), so a failure prints a few lines
/// rather than every sealed blob.
fn assert_same(got: &dyn Shelves, want: &MemShelves, what: &str) {
    let shape = |s: &dyn Shelves| -> Vec<_> {
        s.map()
            .iter()
            .map(|(&key, it)| {
                let slots: Vec<_> =
                    it.holders.iter().map(|(&idx, h)| (idx, h.node.0, h.version)).collect();
                (key, it.version, slots)
            })
            .collect()
    };
    assert_eq!(shape(got), shape(want), "{what}");
    assert!(got.map() == want.map(), "{what}: same shape, different share bytes");
}

fn reopen(scratch: &ScratchPath, factor: u64) -> FileShelves {
    let mut s = FileShelves::open(scratch.path()).unwrap();
    s.set_auto_compact(factor);
    s
}

#[test]
fn acked_puts_read_back_across_every_auto_compaction() {
    const KEYS: u64 = 6;
    let scratch = ScratchPath::new("compact-reopen-puts");
    let mut file = reopen(&scratch, 2);
    let mut shadow = MemShelves::new();
    let mut gens = [0u32; KEYS as usize];
    let mut compactions = 0;
    for op in 0..120u64 {
        let key = op * 5 % KEYS;
        gens[key as usize] += 1;
        let before = file.wal_len();
        put(&mut file, key, gens[key as usize]);
        put(&mut shadow, key, gens[key as usize]);
        if file.wal_len() >= before {
            continue;
        }
        // this put's commit ran a compaction: a restart right now must
        // serve every acknowledged put, this one included
        compactions += 1;
        drop(file);
        file = reopen(&scratch, 2);
        for (key, &version) in gens.iter().enumerate().filter(|&(_, &g)| g > 0) {
            let item = &file.map()[&(key as u64)];
            assert_eq!(item.version, version, "key {key} reopened a generation behind (op {op})");
            let value = decode(&item.shares_of(version), K);
            assert_eq!(value, Some(payload(key as u64, version)), "key {key} (op {op})");
        }
        assert_same(&file, &shadow, &format!("reopen after compaction {compactions} (op {op})"));
    }
    assert!(compactions >= 5, "the stream must cross the threshold repeatedly, saw {compactions}");
}

/// Grow an uncompacted log past the auto-compaction floor, then arm a
/// factor the very next readable-state record is bound to cross.
fn primed(name: &str) -> (ScratchPath, FileShelves, MemShelves) {
    let scratch = ScratchPath::new(name);
    let mut file = reopen(&scratch, 0);
    let mut shadow = MemShelves::new();
    for round in 1..=6u32 {
        for key in 0..4 {
            put(&mut file, key, round);
            put(&mut shadow, key, round);
        }
    }
    assert!(file.wal_len() > (1 << 16) && file.wal_len() > file.live_len());
    file.set_auto_compact(1);
    (scratch, file, shadow)
}

/// Apply `verb` to both backends; it must compact the file log, and a
/// reopen must still show its effect.
fn verb_survives_its_own_compaction(name: &str, verb: impl Fn(&mut dyn Shelves)) {
    let (scratch, mut file, mut shadow) = primed(name);
    let before = file.wal_len();
    verb(&mut file);
    verb(&mut shadow);
    assert!(file.wal_len() < before, "{name}: the verb's record must trigger the compaction");
    assert_same(&file, &shadow, &format!("{name}: live state"));
    drop(file);
    assert_same(&reopen(&scratch, 1), &shadow, &format!("{name}: undone by its own compaction"));
}

#[test]
fn a_remove_that_triggers_compaction_stays_removed() {
    verb_survives_its_own_compaction("compact-reopen-remove", |s| {
        assert!(s.remove(2));
    });
}

#[test]
fn an_unpark_that_triggers_compaction_stays_unparked() {
    verb_survives_its_own_compaction("compact-reopen-unpark", |s| s.unpark(1, 3));
}

#[test]
fn a_retire_that_triggers_compaction_stays_retired() {
    verb_survives_its_own_compaction("compact-reopen-retire", |s| {
        assert_eq!(s.retire(node_of(3, 0)), [3]);
    });
    verb_survives_its_own_compaction("compact-reopen-retire-hinted", |s| {
        assert_eq!(s.retire_hinted(node_of(0, 2), &[(0, 2)]), [0]);
    });
}

/// Make every compaction of the store at `scratch` fail at its first
/// step: the image path is taken by a directory. Removed on drop.
struct BlockedImage(std::path::PathBuf);

impl BlockedImage {
    fn new(scratch: &ScratchPath) -> BlockedImage {
        let dir = scratch.path().with_extension("compact");
        std::fs::create_dir(&dir).unwrap();
        BlockedImage(dir)
    }
}

impl Drop for BlockedImage {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir(&self.0);
    }
}

#[test]
fn a_failed_compaction_keeps_buffered_parks_recoverable() {
    let scratch = ScratchPath::new("compact-reopen-failed");
    let mut file = reopen(&scratch, 0);
    let mut shadow = MemShelves::new();
    put(&mut file, 1, 1);
    put(&mut shadow, 1, 1);
    // generation 2 parked, not yet committed: its records are still in
    // the coalescing buffer when the compaction starts
    park_all(&mut file, 1, 2);
    park_all(&mut shadow, 1, 2);
    let blocked = BlockedImage::new(&scratch);
    assert!(file.compact().is_err(), "the image path is a directory");
    drop(blocked);
    assert!(!file.crashed(), "a compaction that never reached the rename is not fatal");
    assert_eq!(
        file.wal_len(),
        std::fs::metadata(scratch.path()).unwrap().len(),
        "wal_len ran ahead of the log"
    );
    // repair promotes the torn put: the commit must find its parks
    file.commit(1, 2);
    shadow.commit(1, 2);
    drop(file);
    let r = reopen(&scratch, 0);
    assert_eq!(r.recovery().skipped, 0);
    let item = &r.map()[&1];
    assert_eq!(item.version, 2);
    assert_eq!(decode(&item.shares_of(2), K), Some(payload(1, 2)), "generation 2 lost its shares");
    assert_same(&r, &shadow, "reopen after a failed compaction");
}

#[test]
fn a_failed_auto_compaction_is_reported_and_the_store_keeps_serving() {
    let (scratch, mut file, mut shadow) = primed("compact-reopen-auto-failed");
    assert_eq!(file.io_error(), None);
    let blocked = BlockedImage::new(&scratch);
    let before = file.wal_len();
    put(&mut file, 0, 7); // crosses the threshold: compaction is due, and fails
    put(&mut shadow, 0, 7);
    assert!(file.io_error().is_some(), "a failed auto-compaction must be visible");
    assert!(!file.crashed(), "… and must not kill the store");
    assert!(file.wal_len() > before, "the old log keeps growing");
    put(&mut file, 1, 7); // still failing, still serving
    put(&mut shadow, 1, 7);
    assert_same(&file, &shadow, "live state after failed compactions");
    drop(blocked);
    // with the path clear the next crossing compacts
    put(&mut file, 2, 7);
    put(&mut shadow, 2, 7);
    assert!(file.wal_len() < before, "compaction must resume once it can");
    drop(file);
    assert_same(&reopen(&scratch, 1), &shadow, "reopen after failed, then successful, compaction");
}
