//! The write-ahead log: record framing, checksums and the recovery
//! scan.
//!
//! A shelf WAL is a single append-only file:
//!
//! ```text
//! file   := FILE_MAGIC (8 bytes)  record*
//! record := REC_MAGIC u32le ‖ len u32le ‖ crc32(body) u32le ‖ body
//! body   := tag u8 ‖ fields
//!   tag 1  Park   { key u64le, point u64le, node u32le, idx u8, sealed share … }
//!   tag 2  Commit { key u64le, version u32le }
//!   tag 3  Remove { key u64le }
//!   tag 4  Retire { node u32le }
//!   tag 5  Unpark { key u64le, idx u8 }
//! ```
//!
//! The five tags are exactly the five [`crate::Shelves`] verbs, so
//! replaying a record stream through [`crate::MemShelves`] rebuilds
//! the shelf state the writer saw at each record boundary. Two
//! properties make the log crash-consistent:
//!
//! * **Atomic write sequence** — a put appends its `Park` records
//!   first and its `Commit` record last; reads serve the committed
//!   generation only, so a sequence cut anywhere leaves the previous
//!   generation readable and the torn one invisible.
//! * **Recovery scan** ([`scan`]) — a record is accepted only if its
//!   frame is whole *and* its checksum matches. A torn tail is
//!   truncated; an interior damaged record is **skipped, not fatal**:
//!   the scan resynchronizes on the next [`REC_MAGIC`] and keeps
//!   going, so one flipped bit costs one record, never the store.

use bytes::Bytes;
use cd_core::point::Point;
use dh_proto::node::NodeId;

/// First 8 bytes of every shelf WAL (`DHSHELF` + format version 1).
pub const FILE_MAGIC: [u8; 8] = *b"DHSHELF\x01";

/// Marker starting every record frame: what the recovery scan
/// resynchronizes on after damage.
pub const REC_MAGIC: u32 = 0xD45E_C0DE;

/// Bytes of frame overhead per record (magic + length + checksum).
pub const FRAME_BYTES: usize = 12;

/// Upper bound on a record body — anything larger is treated as a
/// corrupt length field, not an allocation request.
pub const MAX_RECORD: usize = 1 << 28;

/// One WAL record: a [`crate::Shelves`] verb in its durable form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// Shelve one sealed share (no visibility change).
    Park {
        /// Item key.
        key: u64,
        /// The item's hashed location (fixed at first store).
        point: Point,
        /// The server shelving the share.
        node: NodeId,
        /// Share index on the clique.
        idx: u8,
        /// The sealed share blob (`dh_erasure::seal` form).
        sealed: Bytes,
    },
    /// Advance the readable generation — the last record of every
    /// atomic write sequence.
    Commit {
        /// Item key.
        key: u64,
        /// The generation that becomes readable.
        version: u32,
    },
    /// Forget an item entirely.
    Remove {
        /// Item key.
        key: u64,
    },
    /// Drop every share held by a departed server.
    Retire {
        /// The server that left.
        node: NodeId,
    },
    /// Drop one share index (repair garbage collection).
    Unpark {
        /// Item key.
        key: u64,
        /// Share index to drop.
        idx: u8,
    },
}

/// CRC-32 (IEEE 802.3, reflected) slice-by-8 tables, built at compile
/// time. `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[t][b]` is the CRC state after byte `b` followed by `t`
/// zero bytes, which is what lets eight input bytes be folded in with
/// eight independent lookups instead of eight dependent ones.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        // detlint: allow(indexing): const-eval table build, i < 256 by the loop bound
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            // detlint: allow(indexing): const-eval table build, 1 <= t < 8 and i < 256 by the loop bounds
            let prev = tables[t - 1][i];
            // detlint: allow(indexing): const-eval table build, the index is masked to 0..=255
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// `CRC_TABLES[T][low byte of x]` — the kernel's only table access.
#[inline(always)]
fn crc_tab<const T: usize>(x: u32) -> u32 {
    // detlint: allow(indexing): T is a const generic in 0..8 (checked at compile time) and a u8 indexes 256 entries
    CRC_TABLES[T][x as u8 as usize]
}

/// CRC-32 (IEEE) of `data` — the per-record integrity check, used by
/// the append path, the compaction image and the recovery scan alike.
/// Slice-by-8: each step folds eight input bytes into the state with
/// eight independent table lookups; the sub-word tail goes bytewise.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let word = u64::from_le_bytes(*w);
        let lo = crc ^ word as u32;
        let hi = (word >> 32) as u32;
        crc = crc_tab::<7>(lo)
            ^ crc_tab::<6>(lo >> 8)
            ^ crc_tab::<5>(lo >> 16)
            ^ crc_tab::<4>(lo >> 24)
            ^ crc_tab::<3>(hi)
            ^ crc_tab::<2>(hi >> 8)
            ^ crc_tab::<1>(hi >> 16)
            ^ crc_tab::<0>(hi >> 24);
    }
    for &b in tail {
        crc = (crc >> 8) ^ crc_tab::<0>(crc ^ u32::from(b));
    }
    !crc
}

/// Append the framed encoding of `rec` to `out`. Returns the number
/// of bytes appended (frame + body).
pub fn encode_record(rec: &WalRecord, out: &mut Vec<u8>) -> usize {
    let frame_at = out.len();
    out.extend_from_slice(&REC_MAGIC.to_le_bytes());
    out.extend_from_slice(&[0u8; 8]); // len + crc patched below
    let body_at = out.len();
    match rec {
        WalRecord::Park { key, point, node, idx, sealed } => {
            out.push(1);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&point.0.to_le_bytes());
            out.extend_from_slice(&node.0.to_le_bytes());
            out.push(*idx);
            out.extend_from_slice(sealed);
        }
        WalRecord::Commit { key, version } => {
            out.push(2);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
        }
        WalRecord::Remove { key } => {
            out.push(3);
            out.extend_from_slice(&key.to_le_bytes());
        }
        WalRecord::Retire { node } => {
            out.push(4);
            out.extend_from_slice(&node.0.to_le_bytes());
        }
        WalRecord::Unpark { key, idx } => {
            out.push(5);
            out.extend_from_slice(&key.to_le_bytes());
            out.push(*idx);
        }
    }
    let body_len = out.len() - body_at;
    // detlint: allow(indexing): append path, not recovery; body_at/frame_at were out.len() above
    let crc = crc32(&out[body_at..]);
    // detlint: allow(indexing): patches the 8 reserved bytes pushed at frame_at + 4
    out[frame_at + 4..frame_at + 8].copy_from_slice(&(body_len as u32).to_le_bytes());
    // detlint: allow(indexing): patches the 8 reserved bytes pushed at frame_at + 4
    out[frame_at + 8..frame_at + 12].copy_from_slice(&crc.to_le_bytes());
    out.len() - frame_at
}

/// Parse one record body (tag + fields). `sealed` payloads are
/// zero-copy windows into `buf`.
fn parse_body(buf: &Bytes, start: usize, len: usize) -> Option<WalRecord> {
    let body = buf.get(start..start + len)?;
    let tag = *body.first()?;
    let rest = body.get(1..)?;
    let u64_at = |at: usize| -> Option<u64> {
        Some(u64::from_le_bytes(rest.get(at..at + 8)?.try_into().ok()?))
    };
    let u32_at = |at: usize| -> Option<u32> {
        Some(u32::from_le_bytes(rest.get(at..at + 4)?.try_into().ok()?))
    };
    match tag {
        1 => {
            let key = u64_at(0)?;
            let point = Point(u64_at(8)?);
            let node = NodeId(u32_at(16)?);
            let idx = *rest.get(20)?;
            let sealed = buf.slice(start + 1 + 21..start + len);
            Some(WalRecord::Park { key, point, node, idx, sealed })
        }
        2 => {
            if rest.len() != 12 {
                return None;
            }
            Some(WalRecord::Commit { key: u64_at(0)?, version: u32_at(8)? })
        }
        3 => {
            if rest.len() != 8 {
                return None;
            }
            Some(WalRecord::Remove { key: u64_at(0)? })
        }
        4 => {
            if rest.len() != 4 {
                return None;
            }
            Some(WalRecord::Retire { node: NodeId(u32_at(0)?) })
        }
        5 => {
            if rest.len() != 9 {
                return None;
            }
            Some(WalRecord::Unpark { key: u64_at(0)?, idx: *rest.get(8)? })
        }
        _ => None,
    }
}

/// What one recovery scan found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Scan {
    /// The records accepted, in log order (share blobs are zero-copy
    /// windows into the scanned buffer).
    pub records: Vec<WalRecord>,
    /// File offset just past the last accepted record: the append
    /// point. Everything beyond it is a torn or damaged tail.
    pub clean_len: u64,
    /// Interior records dropped (checksum, framing or body damage).
    pub skipped: usize,
    /// Bytes past `clean_len` that will be truncated on open.
    pub torn_bytes: u64,
}

/// Why a buffer is not a shelf WAL at all (damage *inside* a WAL is
/// never an error — the scan degrades record by record instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalError {
    /// The first 8 bytes are not [`FILE_MAGIC`].
    NotAShelfStore,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::NotAShelfStore => write!(f, "file does not start with the shelf-WAL magic"),
        }
    }
}

impl std::error::Error for WalError {}

/// Find the next [`REC_MAGIC`] at or after `from` (resync after
/// damage).
fn find_magic(buf: &[u8], from: usize) -> Option<usize> {
    let needle = REC_MAGIC.to_le_bytes();
    let tail = buf.get(from..)?;
    tail.windows(4).position(|w| w == needle).map(|i| from + i)
}

/// Checked little-endian `u32` read at `at` (`None` past the end).
fn read_u32_at(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

/// The recovery scan: walk `buf` record by record, accepting only
/// whole, checksummed, parseable records. Interior damage skips
/// forward to the next record marker; an unterminated tail is
/// reported as torn (the opener truncates it so appends restart at a
/// record boundary). A file shorter than the magic is an empty store.
pub fn scan(buf: &Bytes) -> Result<Scan, WalError> {
    let mut out = Scan { clean_len: FILE_MAGIC.len() as u64, ..Scan::default() };
    if buf.is_empty() {
        return Ok(out);
    }
    match buf.get(..FILE_MAGIC.len()) {
        None => {
            // a creation torn before the magic finished: empty store
            out.clean_len = FILE_MAGIC.len() as u64;
            out.torn_bytes = buf.len() as u64;
            return Ok(out);
        }
        Some(head) if head != FILE_MAGIC => return Err(WalError::NotAShelfStore),
        Some(_) => {}
    }
    let mut pos = FILE_MAGIC.len();
    loop {
        if pos + FRAME_BYTES > buf.len() {
            break; // tail too short for a frame: torn
        }
        if read_u32_at(buf, pos) != Some(REC_MAGIC) {
            // frame damage: resynchronize on the next marker
            match find_magic(buf, pos + 1) {
                Some(next) => {
                    out.skipped += 1;
                    pos = next;
                    continue;
                }
                None => break,
            }
        }
        // the frame-length guard above keeps both reads in bounds, but
        // the recovery path stays checked-access anyway
        let (Some(len), Some(crc)) = (read_u32_at(buf, pos + 4), read_u32_at(buf, pos + 8)) else {
            break;
        };
        let len = len as usize;
        let body_start = pos + FRAME_BYTES;
        if len > MAX_RECORD || body_start + len > buf.len() {
            // either a torn tail (the record never finished) or a
            // damaged length field; a later intact marker decides
            match find_magic(buf, pos + 4) {
                Some(next) => {
                    out.skipped += 1;
                    pos = next;
                    continue;
                }
                None => break,
            }
        }
        let Some(body) = buf.get(body_start..body_start + len) else {
            break;
        };
        if crc32(body) != crc {
            out.skipped += 1;
            pos = body_start + len;
            continue;
        }
        match parse_body(buf, body_start, len) {
            Some(rec) => {
                out.records.push(rec);
                pos = body_start + len;
                out.clean_len = pos as u64;
            }
            None => {
                out.skipped += 1;
                pos = body_start + len;
            }
        }
    }
    out.torn_bytes = buf.len() as u64 - out.clean_len.min(buf.len() as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Park {
                key: 7,
                point: Point(0xABCD),
                node: NodeId(3),
                idx: 2,
                sealed: Bytes::from(vec![0xE5, 0, 0, 0, 1, 2, 2, 4, 9, 9, 9]),
            },
            WalRecord::Commit { key: 7, version: 1 },
            WalRecord::Remove { key: 9 },
            WalRecord::Retire { node: NodeId(44) },
            WalRecord::Unpark { key: 7, idx: 1 },
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        let mut out = FILE_MAGIC.to_vec();
        for r in records {
            encode_record(r, &mut out);
        }
        out
    }

    #[test]
    fn records_roundtrip_through_the_scan() {
        let recs = sample_records();
        let buf = Bytes::from(encode_all(&recs));
        let scan = scan(&buf).unwrap();
        assert_eq!(scan.records, recs);
        assert_eq!(scan.clean_len, buf.len() as u64);
        assert_eq!(scan.skipped, 0);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let recs = sample_records();
        let whole = encode_all(&recs);
        // cut the last record anywhere inside its frame or body
        let last_start = {
            let mut out = FILE_MAGIC.to_vec();
            for r in &recs[..4] {
                encode_record(r, &mut out);
            }
            out.len()
        };
        for cut in last_start + 1..whole.len() {
            let buf = Bytes::from(whole[..cut].to_vec());
            let s = scan(&buf).unwrap();
            assert_eq!(s.records, recs[..4], "cut at {cut} changed the accepted prefix");
            assert_eq!(s.clean_len as usize, last_start);
            assert_eq!(s.torn_bytes as usize, cut - last_start);
        }
    }

    #[test]
    fn interior_damage_skips_one_record_and_resyncs() {
        let recs = sample_records();
        let mut bytes = encode_all(&recs);
        // flip a byte inside the *first* record's body
        bytes[FILE_MAGIC.len() + FRAME_BYTES + 3] ^= 0x40;
        let s = scan(&Bytes::from(bytes)).unwrap();
        assert_eq!(s.skipped, 1);
        assert_eq!(s.records, recs[1..], "damage must cost exactly the damaged record");
        assert_eq!(s.torn_bytes, 0);
    }

    #[test]
    fn damaged_length_field_resyncs_on_the_next_marker() {
        let recs = sample_records();
        let mut bytes = encode_all(&recs);
        // clobber the first record's length field with a huge value
        let at = FILE_MAGIC.len() + 4;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let s = scan(&Bytes::from(bytes)).unwrap();
        assert_eq!(s.records, recs[1..]);
        assert_eq!(s.skipped, 1);
    }

    #[test]
    fn empty_and_stub_files_are_empty_stores() {
        assert_eq!(scan(&Bytes::new()).unwrap().records, vec![]);
        let stub = Bytes::from(FILE_MAGIC[..5].to_vec());
        let s = scan(&stub).unwrap();
        assert_eq!(s.records, vec![]);
        assert_eq!(s.torn_bytes, 5);
        assert!(scan(&Bytes::from(vec![9u8; 64])).is_err(), "foreign files are rejected");
    }

    #[test]
    fn crc_is_the_ieee_polynomial() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
