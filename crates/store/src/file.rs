//! [`FileShelves`]: the WAL-backed shelf store.
//!
//! One store is one append-only file (format in [`crate::wal`]). Every
//! [`Shelves`] verb is appended to the log **before** it is applied to
//! the in-memory map — so the readable state is always replayable from
//! the records that reached disk, and a crash rolls the map back to
//! the last record boundary, never further. Opening a path runs the
//! recovery scan: torn tails are truncated, corrupt interior records
//! are skipped (and counted in [`Recovery`]), and each record is
//! applied as the scan accepts it. The surviving shares of an item are
//! then copied into one buffer of its own, the layout a put leaves, so
//! the file buffer is freed before `open` returns: a reopened store
//! holds its live state, not its log's history.
//!
//! ## Crash injection
//!
//! [`FileShelves::arm`] installs a [`CrashPoint`]: the next
//! `after_records` appends land whole, the fatal one gets only its
//! first `torn_bytes` bytes, and from then on the store is **dead** —
//! every further verb is ignored on disk *and* in memory, exactly as
//! if the process had been killed mid-write. Reopening the same path
//! is the recovery under test.
//!
//! ## Compaction
//!
//! [`FileShelves::compact`] writes the live state (every item's
//! current holders, then its commit record) to a sibling file and
//! atomically renames it over the log; the rename is the commit point,
//! so a crash during compaction leaves either the old log or the new
//! one, both valid. Compaction runs automatically once the log exceeds
//! [`FileShelves::set_auto_compact`]'s factor times the live size
//! (never while a crash point is armed — the crash matrix counts
//! records). The append path only *detects* the crossing; the image is
//! written from the in-memory map, so the compaction itself runs after
//! the verb has applied the record that crossed — *an image never
//! omits the record that triggered it*, because the log that carried
//! it is replaced. The image is streamed ([`write_image`]) through a
//! 64 KiB writer, one item's records at a time; a compaction that
//! fails anywhere before the rename removes its partial image and
//! leaves the old log the log of record — *a failed compaction loses
//! no buffered park*.

use crate::crash::CrashPoint;
use crate::shelf::{apply_record, Holder, ItemState, MemShelves, Shelves};
use crate::wal::{encode_record, scan_each, WalRecord, FILE_MAGIC};
use bytes::Bytes;
use cd_core::point::Point;
use dh_obs::{EventKind as ObsEvent, Obs};
use dh_proto::node::NodeId;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// What the recovery scan found when the store was opened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Records accepted and replayed.
    pub records: usize,
    /// Interior records dropped (checksum, framing or body damage) —
    /// each cost exactly itself, never the store.
    pub skipped: usize,
    /// Bytes of torn tail truncated so appends restart at a record
    /// boundary.
    pub torn_bytes: u64,
}

/// The WAL-backed [`Shelves`] backend. See the module docs.
#[derive(Debug)]
pub struct FileShelves {
    path: PathBuf,
    /// Append handle. `None` only if a compaction renamed its image
    /// into place and then could not reopen it (the store is dead).
    file: Option<File>,
    /// The materialized state — always equal to a replay of the
    /// records on disk up to the last append (or the crash).
    mem: MemShelves,
    /// Current log length in bytes.
    wal_len: u64,
    /// Records appended since open (or since the last [`Self::arm`]).
    appended: u64,
    crash: Option<CrashPoint>,
    dead: bool,
    /// The last real I/O failure: a failed append or flush (the store
    /// went dead on it) or a failed compaction (it did not).
    io_error: Option<io::ErrorKind>,
    recovery: Recovery,
    /// Auto-compaction factor: compact when
    /// `wal_len > factor * live_len` (and the log is past a floor).
    /// `0` disables.
    auto_compact: u64,
    /// The append that just landed crossed the auto-compaction
    /// threshold. [`Self::append`] only *marks* it: `compact` writes
    /// its image from `mem`, so it must run after the verb has applied
    /// that record ([`Self::compact_if_due`]) — compacting inside the
    /// append would discard the record with the old log.
    compact_due: bool,
    /// Whether to `sync_data` after every `Commit` record (power-loss
    /// durability; off by default — the crash model here is process
    /// death, where the page cache survives).
    sync_commits: bool,
    /// Bytes a compacted log of the live state would occupy,
    /// maintained incrementally by the mutation verbs — the
    /// denominator of the auto-compaction ratio. (Recomputing this by
    /// scanning every holder on every append was the dominant cost of
    /// the file put path.)
    live: u64,
    /// Park records encoded but not yet written: one put's share
    /// records are coalesced into a single write at its commit
    /// boundary. Only parks are buffered — every verb that changes the
    /// *readable* state (commit, unpark, remove, retire) flushes, so
    /// the committed state stays replayable from disk alone.
    pending: Vec<u8>,
    /// Flight-recorder handle (off by default). Storage-plane events
    /// are stamped with the recorder's last-seen engine time — the
    /// store has no clock of its own — and are excluded from the
    /// recorder fingerprint, so mem and file backends pin one value.
    obs: Obs,
}

/// Don't bother auto-compacting logs smaller than this.
const AUTO_COMPACT_FLOOR: u64 = 1 << 16;

/// Flush the park buffer once it holds this many bytes even if no
/// commit boundary has arrived (bounds memory under park-heavy repair
/// storms).
const PENDING_FLUSH_BYTES: usize = 1 << 18;

impl FileShelves {
    /// Open (or create) the shelf WAL at `path`, running the recovery
    /// scan: replay every intact record, truncate the torn tail, skip
    /// corrupt interior records. A missing file is an empty store; a
    /// file that is not a shelf WAL at all is
    /// [`io::ErrorKind::InvalidData`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileShelves> {
        let path = path.as_ref().to_path_buf();
        let data = match std::fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let buf = Bytes::from(data);
        // each record is applied as the scan accepts it: the log's
        // history is never held as a record list beside the file
        let mut mem = MemShelves::new();
        let (mut accepted, mut skipped_apply) = (0usize, 0usize);
        let scan = scan_each(&buf, |rec| {
            accepted += 1;
            if !apply_record(&rec, &mut mem) {
                skipped_apply += 1;
            }
        })
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        // the surviving shares are windows into `buf`; give each item
        // one buffer of its own, so the dead log is freed with `buf`
        mem.rehome_shares();
        let file_len = buf.len();
        drop(buf);
        // make the on-disk tail a record boundary again: create the
        // file with its magic, or cut the torn bytes off
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let wal_len = if file_len < FILE_MAGIC.len() {
            file.set_len(0)?;
            let mut f = &file;
            f.write_all(&FILE_MAGIC)?;
            FILE_MAGIC.len() as u64
        } else {
            file.set_len(scan.clean_len)?;
            scan.clean_len
        };
        use std::io::Seek;
        let mut file = file;
        file.seek(io::SeekFrom::End(0))?;
        let live = live_len_of(&mem);
        Ok(FileShelves {
            path,
            file: Some(file),
            mem,
            wal_len,
            appended: 0,
            crash: None,
            dead: false,
            io_error: None,
            recovery: Recovery {
                records: accepted - skipped_apply,
                skipped: scan.skipped + skipped_apply,
                torn_bytes: scan.torn_bytes,
            },
            auto_compact: 8,
            compact_due: false,
            sync_commits: false,
            live,
            pending: Vec::with_capacity(1 << 12),
            obs: Obs::off(),
        })
    }

    /// Attach a flight recorder. Emits the pending
    /// [`ObsEvent::RecoveryScan`] for the scan that ran at
    /// [`Self::open`] (the recorder cannot exist that early), then
    /// records WAL appends, commit fsyncs and compactions as
    /// they happen.
    pub fn set_obs(&mut self, obs: Obs) {
        let Recovery { records, skipped, torn_bytes } = self.recovery;
        let sat = |v: u64| v.min(u64::from(u32::MAX)) as u32;
        obs.emit_storage(ObsEvent::RecoveryScan {
            records: sat(records as u64),
            skipped: sat(skipped as u64),
            torn_bytes: sat(torn_bytes),
        });
        self.obs = obs;
    }

    /// What the recovery scan found when this store was opened.
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// The path this store appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log length in bytes (frame overhead included).
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// Bytes a compacted log of the current live state would occupy —
    /// the denominator of the auto-compaction ratio. Maintained
    /// incrementally; O(1).
    pub fn live_len(&self) -> u64 {
        self.live
    }

    /// Records appended since open (or the last [`Self::arm`]).
    pub fn records_appended(&self) -> u64 {
        self.appended
    }

    /// Arm deterministic crash injection (see [`CrashPoint`]) and
    /// reset the append counter the crash point counts against.
    /// Flushes the park buffer first and disables coalescing while
    /// armed, so the crash matrix counts whole records landing in
    /// order, exactly as before buffering existed.
    pub fn arm(&mut self, crash: CrashPoint) {
        self.flush_pending();
        self.crash = Some(crash);
        self.appended = 0;
    }

    /// Has the armed crash point fired (or an append failed)? A dead
    /// store ignores every further verb, as if the process were gone.
    pub fn crashed(&self) -> bool {
        self.dead
    }

    /// The last real I/O failure, if any. With [`Self::crashed`] it is
    /// the append or flush error that killed the store (an armed crash
    /// point kills it without one); on a live store it is a compaction
    /// that failed and left the store serving on its old, uncompacted
    /// log.
    pub fn io_error(&self) -> Option<io::ErrorKind> {
        self.io_error
    }

    /// Set the auto-compaction factor (`0` disables): the readable-state
    /// verbs compact once `wal_len > factor * live_len` and the log is past
    /// a 64 KiB floor. Returns `self` for builder-style construction.
    pub fn set_auto_compact(&mut self, factor: u64) -> &mut Self {
        self.auto_compact = factor;
        self
    }

    /// `sync_data` the log after every `Commit` record (power-loss
    /// durability; default off — the crash model is process death).
    pub fn set_sync_commits(&mut self, on: bool) -> &mut Self {
        self.sync_commits = on;
        self
    }

    /// Write any buffered park records out in one syscall. Returns
    /// whether they landed; a write failure kills the store
    /// (WAL-before-apply: nothing further may mutate it).
    fn flush_pending(&mut self) -> bool {
        if self.pending.is_empty() {
            return true;
        }
        let Some(file) = &mut self.file else {
            self.dead = true;
            self.pending.clear();
            return false;
        };
        if let Err(e) = file.write_all(&self.pending) {
            self.io_error = Some(e.kind());
            self.dead = true;
            self.pending.clear();
            return false;
        }
        self.pending.clear();
        true
    }

    /// Append `rec` to the log, honoring an armed crash point. Returns
    /// whether the record landed (and may therefore be applied to the
    /// in-memory map).
    ///
    /// `Park` records are coalesced in [`Self::pending`] and written
    /// together with the next readable-state verb — one put's whole
    /// park×m + commit sequence is a single write. The coalescing rule
    /// is *a commit is never durable before its shares*: a readable
    /// verb's record is framed after the buffered parks and lands in
    /// the same write, behind them. Losing buffered parks to a real
    /// process death therefore loses only *uncommitted* state, and the
    /// replayable committed generation is exactly what the atomic
    /// write sequence already guaranteed (`tests/prop_crash.rs`,
    /// invariant 4, checks it at every record boundary).
    fn append(&mut self, rec: &WalRecord) -> bool {
        if self.dead {
            return false;
        }
        // frame the record where it will be written from: `pending`
        // holds only this put's earlier parks (nothing while armed)
        let at = self.pending.len();
        let bytes = encode_record(rec, &mut self.pending);
        if let Some(cp) = self.crash {
            if self.appended >= cp.after_records {
                // the fatal record: only its first torn_bytes reach
                // disk, then the process is "gone"
                let torn = cp.torn_bytes.min(bytes);
                if let Some(file) = &mut self.file {
                    let _ = file.write_all(self.pending.get(at..at + torn).unwrap_or(&[]));
                    let _ = file.flush();
                }
                self.pending.clear();
                self.wal_len += torn as u64;
                self.dead = true;
                // a fully flushed fatal record is durable even though
                // the store dies with it — recovery will replay it
                return torn == bytes;
            }
        }
        let bytes = bytes as u64;
        // coalesce parks (write-through while a crash point is armed —
        // the crash matrix counts whole records landing in order)
        if self.crash.is_none() && matches!(rec, WalRecord::Park { .. }) {
            self.wal_len += bytes;
            self.appended += 1;
            self.obs.emit_storage(ObsEvent::WalAppend { bytes: bytes as u32 });
            if self.pending.len() >= PENDING_FLUSH_BYTES {
                return self.flush_pending();
            }
            return true;
        }
        // a readable-state verb: its record and every buffered park
        // land in one write, parks first — a commit is never durable
        // before its shares
        let Some(file) = &mut self.file else {
            self.dead = true;
            self.pending.clear();
            return false;
        };
        if let Err(e) = file.write_all(&self.pending) {
            // WAL-before-apply: a record that failed to land must not
            // mutate the readable state either
            self.io_error = Some(e.kind());
            self.dead = true;
            self.pending.clear();
            return false;
        }
        self.pending.clear();
        if self.sync_commits && matches!(rec, WalRecord::Commit { .. }) {
            let _ = file.sync_data();
            self.obs.emit_storage(ObsEvent::Fsync);
        }
        self.wal_len += bytes;
        self.appended += 1;
        self.obs.emit_storage(ObsEvent::WalAppend { bytes: bytes as u32 });
        if self.crash.is_none()
            && self.auto_compact > 0
            && self.wal_len > AUTO_COMPACT_FLOOR
            && self.wal_len > self.auto_compact * self.live_len()
        {
            self.compact_due = true;
        }
        true
    }

    /// Run the auto-compaction the last [`Self::append`] marked due.
    /// Every readable-state verb calls this once its record is applied
    /// to `mem`, so the compacted image holds the post-record state.
    /// A failed compaction is not fatal — the store keeps serving on
    /// the old log — but it is not silent either: `compact` keeps the
    /// error kind for [`Self::io_error`].
    fn compact_if_due(&mut self) {
        if std::mem::take(&mut self.compact_due) {
            let _ = self.compact();
        }
    }

    /// Rewrite the live state to a sibling file and atomically rename
    /// it over the log. The rename is the commit point: a crash during
    /// compaction leaves either the old complete log or the new one.
    /// Parked-but-uncommitted generations survive compaction (their
    /// holders are written as parks; the final commit record restores
    /// the committed generation), so a torn write still rolls back the
    /// same way after a compacted reopen. The image is streamed
    /// ([`write_image`]): what it holds in memory is one item's records
    /// and a 64 KiB writer, whatever the live size.
    ///
    /// An `Err` from anything up to and including the rename leaves
    /// the store alive and appending to the old log, which holds every
    /// record `mem` reflects — *a failed compaction loses no buffered
    /// park* — removes the partial image and is kept for
    /// [`Self::io_error`]. Only failing to reopen the renamed log loses
    /// the append handle, and that kills the store.
    pub fn compact(&mut self) -> io::Result<()> {
        self.compact_through(|image| Box::new(image))
    }

    /// [`Self::compact`] with the image's sink wrapped by `sink` — the
    /// fault-injection seam for a compaction that fails partway
    /// through its image (as [`Self::arm`] is for appends). Everything
    /// the image loop writes goes through the returned writer, which
    /// must write to the file it is given; the fsync and the rename
    /// follow only if it reported every byte written.
    pub fn compact_through(
        &mut self,
        sink: impl FnOnce(&File) -> Box<dyn Write + '_>,
    ) -> io::Result<()> {
        // buffered parks go to the old log first: it stays the log of
        // record until the rename, so it must hold all that `mem` does
        if self.dead || !self.flush_pending() {
            return Err(io::Error::other("store is dead"));
        }
        let tmp = self.path.with_extension("compact");
        // create before encoding, so a compaction that cannot start
        // (and is retried at the next crossing) fails cheaply
        let image_len = File::create(&tmp)
            .and_then(|image| {
                self.commit_image(image, &tmp, sink).inspect_err(|_| {
                    let _ = std::fs::remove_file(&tmp);
                })
            })
            .inspect_err(|e| self.io_error = Some(e.kind()))?;
        debug_assert_eq!(image_len, self.live, "live_len drifted from the image");
        // the old handle now appends to an unlinked file: without a
        // new one the store cannot log, so it must not mutate either
        self.file = None;
        let file = OpenOptions::new().append(true).open(&self.path).inspect_err(|e| {
            self.io_error = Some(e.kind());
            self.dead = true;
        })?;
        self.file = Some(file);
        let sat = |v: u64| v.min(u64::from(u32::MAX)) as u32;
        self.obs.emit_storage(ObsEvent::Compaction {
            live_bytes: sat(image_len),
            wal_bytes: sat(self.wal_len),
        });
        self.wal_len = image_len;
        Ok(())
    }

    /// Stream the image through `sink` into `image` (the file at
    /// `tmp`), sync it and rename it over the log. Returns its length.
    fn commit_image(
        &self,
        image: File,
        tmp: &Path,
        sink: impl FnOnce(&File) -> Box<dyn Write + '_>,
    ) -> io::Result<u64> {
        let len = write_image(self.mem.map(), sink(&image))?;
        image.sync_data()?;
        drop(image);
        // the commit point: readers of `path` see the old log right up
        // to the instant they see the new one (the old append handle
        // stays usable if the rename fails)
        std::fs::rename(tmp, &self.path)?;
        Ok(len)
    }

    /// The recovered items as `(key, version, holders)` triples —
    /// observability for tests and tooling.
    pub fn snapshot(&self) -> Vec<(u64, u32, usize)> {
        self.mem
            .map()
            .iter()
            .map(|(&key, it)| (key, it.version, it.holders.len()))
            .collect()
    }
}

/// The compaction writer's buffer: the most image bytes held before
/// they are written out.
pub const IMAGE_BUF_BYTES: usize = 1 << 16;

/// Stream the compacted image of `map` into `sink`: the file magic,
/// then per item in key order its holders' `Park` records in index
/// order and its `Commit` record — the bytes a replay of the whole log
/// would rebuild `map` from. Each item is encoded into one reused
/// record buffer and written through a [`IMAGE_BUF_BYTES`] writer, so
/// no write and no buffer is larger than that plus one item's records.
/// The image is taken from the map, after the verb that triggered it
/// applied its record: *an image never omits the record that triggered
/// it*. Returns the bytes written, which on success equal
/// [`FileShelves::live_len`]; on error `sink` holds a prefix.
pub fn write_image(map: &BTreeMap<u64, ItemState>, sink: impl Write) -> io::Result<u64> {
    let mut out = BufWriter::with_capacity(IMAGE_BUF_BYTES, sink);
    out.write_all(&FILE_MAGIC)?;
    let mut written = FILE_MAGIC.len() as u64;
    let mut records = Vec::new();
    for (&key, item) in map {
        records.clear();
        for (&idx, h) in &item.holders {
            let (node, sealed) = (h.node, h.sealed.clone());
            let park = WalRecord::Park { key, point: item.point, node, idx, sealed };
            encode_record(&park, &mut records);
        }
        encode_record(&WalRecord::Commit { key, version: item.version }, &mut records);
        out.write_all(&records)?;
        written += records.len() as u64;
    }
    out.flush()?;
    Ok(written)
}

/// Encoded size of a `Park` record holding a `sealed_len`-byte blob.
fn park_record_bytes(sealed_len: usize) -> u64 {
    // frame (12) + tag (1) + key (8) + point (8) + node (4) + idx (1)
    (12 + 22 + sealed_len) as u64
}

/// Full recomputation of the compacted-log size — the ground truth the
/// incremental [`FileShelves::live_len`] counter is checked against
/// (on open, after compaction, and in tests).
fn live_len_of(mem: &MemShelves) -> u64 {
    let mut len = FILE_MAGIC.len() as u64;
    for item in mem.map().values() {
        len += COMMIT_RECORD_BYTES;
        for h in item.holders.values() {
            len += park_record_bytes(h.sealed.len());
        }
    }
    len
}

/// Encoded size of a `Commit` record.
const COMMIT_RECORD_BYTES: u64 = 12 + 13;

impl Shelves for FileShelves {
    fn map(&self) -> &BTreeMap<u64, ItemState> {
        self.mem.map()
    }

    fn park(&mut self, key: u64, point: Point, idx: u8, holder: Holder) {
        let rec = WalRecord::Park {
            key,
            point,
            node: holder.node,
            idx,
            sealed: holder.sealed.clone(),
        };
        if self.append(&rec) {
            // live delta: a new item costs its commit record too; an
            // overwritten holder swaps blob sizes
            let new = park_record_bytes(holder.sealed.len());
            let (created, old) = self.mem.park_replacing(key, point, idx, holder);
            self.live += new + if created { COMMIT_RECORD_BYTES } else { 0 };
            self.live -= old.map_or(0, |h| park_record_bytes(h.sealed.len()));
        }
    }

    fn commit(&mut self, key: u64, version: u32) {
        if self.append(&WalRecord::Commit { key, version }) {
            self.mem.commit(key, version);
            self.compact_if_due();
        }
    }

    fn unpark(&mut self, key: u64, idx: u8) {
        if self.append(&WalRecord::Unpark { key, idx }) {
            if let Some(h) = self.mem.map().get(&key).and_then(|it| it.holders.get(&idx)) {
                self.live -= park_record_bytes(h.sealed.len());
            }
            self.mem.unpark(key, idx);
            self.compact_if_due();
        }
    }

    fn remove(&mut self, key: u64) -> bool {
        if !self.mem.map().contains_key(&key) {
            return false;
        }
        if self.append(&WalRecord::Remove { key }) {
            if let Some(item) = self.mem.map().get(&key) {
                self.live -= COMMIT_RECORD_BYTES
                    + item
                        .holders
                        .values()
                        .map(|h| park_record_bytes(h.sealed.len()))
                        .sum::<u64>();
            }
            let removed = self.mem.remove(key);
            self.compact_if_due();
            removed
        } else {
            false
        }
    }

    fn retire_hinted(&mut self, node: NodeId, hints: &[(u64, u8)]) {
        if hints.is_empty() {
            return; // no record for share-less leavers
        }
        // one Retire record on disk — recovery replays it with the
        // full retire, the hints only speed up the in-memory apply
        if self.append(&WalRecord::Retire { node }) {
            for &(key, idx) in hints {
                if let Some(h) = self.mem.map().get(&key).and_then(|it| it.holders.get(&idx))
                {
                    if h.node == node {
                        self.live -= park_record_bytes(h.sealed.len());
                    }
                }
            }
            self.mem.retire_hinted(node, hints);
            self.compact_if_due();
        }
    }
}

impl Drop for FileShelves {
    /// Graceful shutdown flushes any coalesced park records, so a
    /// clean drop-and-reopen sees the complete log.
    fn drop(&mut self) {
        if !self.dead {
            self.flush_pending();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tamper::ScratchPath;
    use dh_erasure::{encode, ShareHeader};

    fn holder(node: u32, version: u32, payload: &[u8], idx: u8) -> Holder {
        let shares = encode(payload, 2, 4);
        let header = ShareHeader { version, index: idx, k: 2, m: 4 };
        Holder::seal(NodeId(node), header, &shares[idx as usize])
    }

    fn put_item(s: &mut FileShelves, key: u64, version: u32, payload: &[u8]) {
        for idx in 0..4u8 {
            s.park(key, Point(key ^ 0x9E37), idx, holder(10 + idx as u32, version, payload, idx));
        }
        s.commit(key, version);
    }

    #[test]
    fn open_append_reopen_roundtrips() {
        let scratch = ScratchPath::new("roundtrip");
        {
            let mut s = FileShelves::open(scratch.path()).unwrap();
            assert_eq!(s.recovery(), Recovery::default());
            put_item(&mut s, 1, 1, b"first");
            put_item(&mut s, 2, 1, b"second");
            s.unpark(2, 3);
            assert!(!s.remove(9), "unknown remove appends nothing");
            assert_eq!(s.items(), 2);
        }
        let s = FileShelves::open(scratch.path()).unwrap();
        assert_eq!(s.recovery().records, 11);
        assert_eq!(s.recovery().skipped, 0);
        assert_eq!(s.snapshot(), vec![(1, 1, 4), (2, 1, 3)]);
        // shares survive byte-for-byte
        let item = &s.map()[&1];
        assert_eq!(item.shares_of(1).len(), 4);
    }

    #[test]
    fn a_reopened_item_owns_one_buffer_in_put_layout() {
        let scratch = ScratchPath::new("rehome");
        {
            let mut s = FileShelves::open(scratch.path()).unwrap();
            put_item(&mut s, 1, 1, b"first generation");
            put_item(&mut s, 2, 1, b"second item");
            put_item(&mut s, 1, 2, b"overwrite");
        }
        let s = FileShelves::open(scratch.path()).unwrap();
        // in the log, park records sit 34 frame and field bytes apart:
        // adjacent blobs were copied out of the file buffer, in index
        // order, into one buffer per item
        for item in s.map().values() {
            let blobs: Vec<&Bytes> = item.holders.values().map(|h| &h.sealed).collect();
            for pair in blobs.windows(2) {
                assert_eq!(pair[0].as_ptr_range().end, pair[1].as_ptr(), "not one buffer");
            }
        }
        assert_eq!(s.map()[&1].shares_of(2).len(), 4);
    }

    #[test]
    fn crash_point_kills_the_fatal_record_and_everything_after() {
        let scratch = ScratchPath::new("crash");
        let total = {
            let mut s = FileShelves::open(scratch.path()).unwrap();
            put_item(&mut s, 7, 1, b"whole");
            s.records_appended()
        };
        assert_eq!(total, 5);
        for after in 0..total {
            let scratch = ScratchPath::new(&format!("crash-{after}"));
            let mut s = FileShelves::open(scratch.path()).unwrap();
            s.arm(CrashPoint::new(after, 9));
            put_item(&mut s, 7, 1, b"whole");
            assert!(s.crashed());
            // verbs after death are ignored entirely
            let before = (s.items(), s.wal_len());
            put_item(&mut s, 8, 1, b"ignored");
            assert_eq!((s.items(), s.wal_len()), before);
            drop(s);
            let r = FileShelves::open(scratch.path()).unwrap();
            assert_eq!(r.recovery().records as u64, after);
            assert_eq!(r.recovery().torn_bytes, 9, "the torn prefix must be truncated");
            // the commit record never landed: generation invisible
            let committed = r.map().get(&7).map(|it| it.version).unwrap_or(0);
            assert_eq!(committed, 0, "torn put must not advance the generation");
        }
    }

    #[test]
    fn fully_flushed_fatal_record_is_durable() {
        let scratch = ScratchPath::new("fatal-whole");
        let mut s = FileShelves::open(scratch.path()).unwrap();
        // huge torn_bytes: the fatal record flushes whole, then death
        s.arm(CrashPoint::new(4, usize::MAX));
        put_item(&mut s, 3, 1, b"all five records");
        assert!(s.crashed());
        drop(s);
        let r = FileShelves::open(scratch.path()).unwrap();
        assert_eq!(r.recovery().records, 5);
        assert_eq!(r.map()[&3].version, 1, "a flushed commit is committed");
    }

    #[test]
    fn compaction_rewrites_live_state_and_preserves_reads() {
        let scratch = ScratchPath::new("compact");
        let mut s = FileShelves::open(scratch.path()).unwrap();
        s.set_auto_compact(0); // manual for this test
        for round in 1..=20u32 {
            put_item(&mut s, 1, round, b"overwritten many times");
            put_item(&mut s, 2, round, b"also rewritten");
        }
        put_item(&mut s, 3, 1, b"stable");
        s.remove(2);
        let before = s.wal_len();
        let state = s.snapshot();
        s.compact().unwrap();
        assert!(s.wal_len() < before / 4, "compaction must shrink a churned log");
        assert_eq!(s.snapshot(), state, "compaction must not change the live state");
        // the compacted file reopens to the same state, and stays
        // appendable
        put_item(&mut s, 4, 1, b"post-compact append");
        let want = s.snapshot();
        drop(s);
        let r = FileShelves::open(scratch.path()).unwrap();
        assert_eq!(r.recovery().skipped, 0);
        assert_eq!(r.snapshot(), want);
    }

    #[test]
    fn auto_compaction_bounds_the_log() {
        let scratch = ScratchPath::new("auto-compact");
        let mut s = FileShelves::open(scratch.path()).unwrap();
        s.set_auto_compact(4);
        let payload = vec![0xAB; 4096];
        for round in 1..=200u32 {
            put_item(&mut s, 1, round, &payload);
        }
        // live state is one item (4 shares ≈ 2 KiB each): the log must
        // stay within factor × live + one round, nowhere near the
        // ~1.7 MB an uncompacted 200-round log would reach
        assert!(
            s.wal_len() < 6 * s.live_len() + (1 << 16),
            "log grew unbounded: {} bytes vs live {}",
            s.wal_len(),
            s.live_len()
        );
        let want = s.snapshot();
        drop(s);
        let r = FileShelves::open(scratch.path()).unwrap();
        assert_eq!(r.snapshot(), want);
    }

    #[test]
    fn parked_uncommitted_generation_survives_compaction_invisible() {
        let scratch = ScratchPath::new("compact-parked");
        let mut s = FileShelves::open(scratch.path()).unwrap();
        put_item(&mut s, 5, 1, b"committed");
        // a torn overwrite: parks of generation 2, no commit
        for idx in 0..2u8 {
            s.park(5, Point(5 ^ 0x9E37), idx, holder(10 + idx as u32, 2, b"torn", idx));
        }
        s.compact().unwrap();
        drop(s);
        let r = FileShelves::open(scratch.path()).unwrap();
        let item = &r.map()[&5];
        assert_eq!(item.version, 1, "compaction must not commit a parked generation");
        assert_eq!(item.shares_of(2).len(), 2, "parked shares survive for repair to judge");
    }

    #[test]
    fn incremental_live_len_matches_full_scan() {
        let scratch = ScratchPath::new("live-len");
        let mut s = FileShelves::open(scratch.path()).unwrap();
        s.set_auto_compact(0);
        for round in 1..=3u32 {
            put_item(&mut s, 1, round, b"rewritten");
            put_item(&mut s, round as u64 + 10, 1, b"fresh");
        }
        s.unpark(1, 2);
        s.remove(11);
        // node 10 holds index 0 of every item: each loses that slot
        s.retire(NodeId(10));
        let slots: Vec<(u64, Vec<u8>)> =
            s.map().iter().map(|(&key, it)| (key, it.holders.keys().copied().collect())).collect();
        assert_eq!(slots, [(1, vec![1, 3]), (12, vec![1, 2, 3]), (13, vec![1, 2, 3])]);
        let appended = s.records_appended();
        s.retire(NodeId(99));
        assert_eq!(s.records_appended(), appended, "no record for a server holding nothing");
        assert_eq!(s.live_len(), live_len_of(&s.mem), "counter drifted from scan");
        drop(s);
        let r = FileShelves::open(scratch.path()).unwrap();
        assert_eq!(r.live_len(), live_len_of(&r.mem), "reopen seeds the counter");
    }

    #[test]
    fn park_coalescing_is_invisible_to_reopen() {
        let scratch = ScratchPath::new("coalesce");
        let want = {
            let mut s = FileShelves::open(scratch.path()).unwrap();
            put_item(&mut s, 1, 1, b"grouped write");
            // parks with no commit yet: still buffered, flushed by Drop
            for idx in 0..2u8 {
                s.park(2, Point(7), idx, holder(20 + idx as u32, 1, b"tail", idx));
            }
            s.snapshot()
        };
        let r = FileShelves::open(scratch.path()).unwrap();
        assert_eq!(r.recovery().records, 7);
        assert_eq!(r.snapshot(), want);
    }

    #[test]
    fn synced_commits_reopen_whole() {
        let scratch = ScratchPath::new("sync-commits");
        let mut s = FileShelves::open(scratch.path()).unwrap();
        let obs = Obs::recording(1 << 10);
        s.set_obs(obs.clone());
        s.set_sync_commits(true);
        for round in 1..=9u32 {
            put_item(&mut s, u64::from(round % 3), round, b"every commit syncs");
        }
        let events = obs.explain(dh_obs::BACKGROUND).expect("recording").events;
        let syncs = events.iter().filter(|e| e.kind == ObsEvent::Fsync).count();
        assert_eq!(syncs, 9, "one sync per commit record");
        let want = s.snapshot();
        drop(s);
        let r = FileShelves::open(scratch.path()).unwrap();
        assert_eq!(r.snapshot(), want);
    }

    #[test]
    fn another_format_version_is_refused_by_name_not_clobbered() {
        let scratch = ScratchPath::new("wal-v2");
        let mut v2 = b"DHSHELF\x02".to_vec();
        v2.extend_from_slice(&[0xAA; 40]);
        std::fs::write(scratch.path(), &v2).unwrap();
        let err = FileShelves::open(scratch.path()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let inner = err.get_ref().and_then(|e| e.downcast_ref::<crate::WalError>());
        assert_eq!(inner, Some(&crate::WalError::UnsupportedVersion { found: 2 }));
        assert!(err.to_string().contains("version 2"), "{err}");
        assert_eq!(std::fs::read(scratch.path()).unwrap(), v2, "the file is untouched");
    }

    #[test]
    fn foreign_files_are_rejected_not_clobbered() {
        let scratch = ScratchPath::new("foreign");
        std::fs::write(scratch.path(), b"definitely not a shelf WAL").unwrap();
        let err = FileShelves::open(scratch.path()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // the file is untouched
        assert_eq!(std::fs::read(scratch.path()).unwrap(), b"definitely not a shelf WAL");
    }
}
