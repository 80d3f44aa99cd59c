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
//! it — buffered parks included — the partial image is removed, and
//! the failure is reported, not swallowed.
//!
//! The two invariants, by name:
//! * "an image never omits the record that triggered it";
//! * "a failed compaction loses no buffered park".
//!
//! The image itself is streamed: it must be the bytes a replay needs
//! (live state, key order, parks before commit), as long as
//! `live_len`, and written in pieces no larger than the image writer's
//! buffer plus one item's records, whatever the live size.

use bytes::Bytes;
use cd_core::point::Point;
use dh_erasure::{encode, try_decode, ShareHeader};
use dh_proto::node::NodeId;
use dh_store::file::{write_image, IMAGE_BUF_BYTES};
use dh_store::wal::encode_record;
use dh_store::{scan, FileShelves, Holder, MemShelves, ScratchPath, Shelves, WalRecord};
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

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

/// "an image never omits the record that triggered it": every put
/// whose commit ran an auto-compaction reads back after a restart.
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
            let value = try_decode(&item.shares_of(version), K).ok();
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
    // `node_of` names one slot of one item, so the item losing exactly
    // that slot is the whole effect
    let slots = |s: &dyn Shelves, key| s.map()[&key].holders.keys().copied().collect::<Vec<_>>();
    verb_survives_its_own_compaction("compact-reopen-retire", |s| {
        s.retire(node_of(3, 0));
        assert_eq!(slots(s, 3), [1, 2, 3]);
    });
    verb_survives_its_own_compaction("compact-reopen-retire-hinted", |s| {
        s.retire_hinted(node_of(0, 2), &[(0, 2)]);
        assert_eq!(slots(s, 0), [0, 1, 3]);
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

/// "a failed compaction loses no buffered park", when the image
/// cannot even be created.
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
    let value = try_decode(&item.shares_of(2), K).ok();
    assert_eq!(value, Some(payload(1, 2)), "generation 2 lost its shares");
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

/// A sink that takes `budget` bytes, then fails every write.
struct FailAfter<W> {
    inner: W,
    budget: usize,
}

impl<W: Write> Write for FailAfter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget == 0 {
            return Err(io::Error::other("sink full"));
        }
        let n = self.inner.write(buf.get(..self.budget).unwrap_or(buf))?;
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A sink that passes writes through and notes each one's size.
struct Sizes<W> {
    inner: W,
    sizes: Rc<RefCell<Vec<usize>>>,
}

impl<W: Write> Write for Sizes<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.sizes.borrow_mut().push(n);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The records a replay of `shelves` needs, in image order: per item
/// in key order, its holders' parks in index order, then its commit.
fn image_records(shelves: &dyn Shelves) -> Vec<WalRecord> {
    let mut want = Vec::new();
    for (&key, item) in shelves.map() {
        for (&idx, h) in &item.holders {
            let sealed = h.sealed.clone();
            want.push(WalRecord::Park { key, point: item.point, node: h.node, idx, sealed });
        }
        want.push(WalRecord::Commit { key, version: item.version });
    }
    want
}

/// Encoded bytes of the largest item's records.
fn largest_item(shelves: &dyn Shelves) -> usize {
    let mut largest = 0;
    let mut records = Vec::new();
    for (&key, item) in shelves.map() {
        records.clear();
        for (&idx, h) in &item.holders {
            let sealed = h.sealed.clone();
            let park = WalRecord::Park { key, point: item.point, node: h.node, idx, sealed };
            encode_record(&park, &mut records);
        }
        encode_record(&WalRecord::Commit { key, version: item.version }, &mut records);
        largest = largest.max(records.len());
    }
    largest
}

#[test]
fn the_streamed_image_is_the_live_state_in_key_order() {
    let (scratch, mut file, mut shadow) = primed("compact-reopen-image");
    file.set_auto_compact(0);
    put(&mut file, 9, 1);
    put(&mut shadow, 9, 1);
    file.unpark(9, 2);
    shadow.unpark(9, 2);
    park_all(&mut file, 2, 7); // a torn put, still buffered
    park_all(&mut shadow, 2, 7);
    let live = file.live_len();
    file.compact().unwrap();
    assert_eq!(file.wal_len(), live, "wal_len is the image's length");
    let bytes = std::fs::read(scratch.path()).unwrap();
    assert_eq!(bytes.len() as u64, live, "the image is live_len bytes");
    let image = scan(&Bytes::from(bytes)).unwrap();
    assert_eq!((image.skipped, image.torn_bytes), (0, 0));
    assert!(image.records == image_records(&shadow), "not the live state in key order");
    drop(file);
    assert_same(&reopen(&scratch, 0), &shadow, "reopen of the streamed image");
}

#[test]
fn compaction_writes_stay_bounded_whatever_the_live_size() {
    for items in [3u64, 60, 600] {
        let mut shadow = MemShelves::new();
        for key in 0..items {
            put(&mut shadow, key, 1);
        }
        // one item larger than the writer's buffer
        let big: Vec<u8> = (0..200_000u32).map(|i| i as u8).collect();
        for (idx, share) in encode(&big, K, M).iter().enumerate() {
            let header = ShareHeader { version: 1, index: idx as u8, k: K as u8, m: M as u8 };
            shadow.park(items, Point(7), idx as u8, Holder::seal(node_of(items, idx), header, share));
        }
        shadow.commit(items, 1);
        let sizes = Rc::new(RefCell::new(Vec::new()));
        let mut image = Vec::new();
        let sink = Sizes { inner: &mut image, sizes: sizes.clone() };
        let written = write_image(shadow.map(), sink).unwrap();
        assert_eq!(written, image.len() as u64);
        let bound = IMAGE_BUF_BYTES + largest_item(&shadow);
        let largest = sizes.borrow().iter().copied().max().unwrap_or(0);
        assert!(largest <= bound, "{items} items: a {largest}-byte write, bound {bound}");
    }
    // the store's own compaction goes through the same bounded writer
    let (_scratch, mut file, _) = primed("compact-reopen-bounded");
    let sizes = Rc::new(RefCell::new(Vec::new()));
    let seen = sizes.clone();
    let live = file.live_len();
    file.compact_through(move |image| Box::new(Sizes { inner: image, sizes: seen })).unwrap();
    let bound = IMAGE_BUF_BYTES + largest_item(&file);
    assert!(sizes.borrow().iter().all(|&n| n <= bound), "writes {:?}", sizes.borrow());
    assert_eq!(sizes.borrow().iter().sum::<usize>() as u64, live);
}

/// "a failed compaction loses no buffered park", when the image fails
/// partway: whatever prefix reached the `.compact` file, the old log
/// stays the log of record and the partial image is removed.
/// A store whose live image spans several image buffers: 40 items,
/// each overwritten once; auto-compaction off.
fn wide(name: &str) -> (ScratchPath, FileShelves, MemShelves) {
    let scratch = ScratchPath::new(name);
    let mut file = reopen(&scratch, 0);
    let mut shadow = MemShelves::new();
    for round in 1..=2u32 {
        for key in 0..40 {
            put(&mut file, key, round);
            put(&mut shadow, key, round);
        }
    }
    (scratch, file, shadow)
}

#[test]
fn a_compaction_that_fails_mid_image_keeps_the_old_log_of_record() {
    let shadow = wide("compact-reopen-image-loop").2;
    let mut whole = Vec::new();
    let len = write_image(shadow.map(), &mut whole).unwrap();
    assert!(len > 2 * IMAGE_BUF_BYTES as u64, "the image must span several buffers");
    for budget in [0, 1, 8, 4_000, IMAGE_BUF_BYTES, IMAGE_BUF_BYTES + 1, 100_000, len as usize - 1]
    {
        // the image loop alone: a prefix lands, then the error
        let mut got = Vec::new();
        let err = write_image(shadow.map(), FailAfter { inner: &mut got, budget });
        assert!(err.is_err(), "budget {budget}: the loop must report the failure");
        assert_eq!(got, whole.get(..budget).unwrap(), "budget {budget}: not a prefix");

        // the store: keeps serving on the old log
        let (scratch, mut file, mut shadow) = wide(&format!("compact-reopen-mid-{budget}"));
        park_all(&mut file, 3, 9); // buffered when the compaction starts
        park_all(&mut shadow, 3, 9);
        let res = file.compact_through(|image| Box::new(FailAfter { inner: image, budget }));
        assert!(res.is_err(), "budget {budget}: the compaction must fail");
        assert!(file.io_error().is_some(), "budget {budget}: the failure must be visible");
        assert!(!file.crashed(), "budget {budget}: a compaction before its rename is not fatal");
        assert!(
            !scratch.path().with_extension("compact").exists(),
            "budget {budget}: the partial image was left behind"
        );
        assert_eq!(
            file.wal_len(),
            std::fs::metadata(scratch.path()).unwrap().len(),
            "budget {budget}: wal_len ran ahead of the log"
        );
        drop(file);
        assert_same(&reopen(&scratch, 0), &shadow, &format!("budget {budget}: reopen"));
        // and after a reopen the parked generation can still commit
        let mut file = reopen(&scratch, 0);
        file.commit(3, 9);
        shadow.commit(3, 9);
        put(&mut file, 4, 1);
        put(&mut shadow, 4, 1);
        drop(file);
        let r = reopen(&scratch, 0);
        assert_eq!(try_decode(&r.map()[&3].shares_of(9), K).ok(), Some(payload(3, 9)));
        assert_same(&r, &shadow, &format!("budget {budget}: serving after the failure"));
    }
}

#[test]
fn a_failed_rename_removes_the_image_too() {
    let (scratch, mut file, shadow) = primed("compact-reopen-rename");
    file.set_auto_compact(0);
    // the log's path becomes a non-empty directory, so the rename over
    // it fails after the image is whole and synced
    let moved = scratch.path().with_extension("moved");
    std::fs::rename(scratch.path(), &moved).unwrap();
    std::fs::create_dir(scratch.path()).unwrap();
    std::fs::write(scratch.path().join("occupant"), b"x").unwrap();
    assert!(file.compact().is_err(), "the rename cannot replace a directory");
    assert!(!scratch.path().with_extension("compact").exists(), "the whole image was left behind");
    assert!(file.io_error().is_some() && !file.crashed());
    std::fs::remove_dir_all(scratch.path()).unwrap();
    std::fs::rename(&moved, scratch.path()).unwrap();
    drop(file);
    assert_same(&reopen(&scratch, 0), &shadow, "reopen after a failed rename");
}
