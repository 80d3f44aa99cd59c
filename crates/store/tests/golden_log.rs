//! The on-disk log is pinned, byte for byte.
//!
//! Changes to how a record gets *to* the file — the checksum kernel,
//! where a record is framed, how parks are coalesced, when compaction
//! flushes — must not change what the file *holds*: the log has readers
//! (every store already on disk). One scripted sequence that walks
//! every verb, an explicit compaction with parks still buffered, and
//! appends after it is run against the current code; its file must
//! equal `fixtures/golden_v2.wal` and hash to the fingerprint captured
//! with it. The fixture must also reopen cleanly — nothing skipped,
//! nothing torn — into the state the script leaves behind.
//!
//! `golden_v2.wal` holds shares of the systematic code. The same script
//! wrote `fixtures/golden_v1.wal` under the retired non-systematic code;
//! the frames are unchanged, but its shares are sealed with the old
//! magic. It is kept as the refusal fixture: it reopens without a panic
//! or a torn byte, every share record is skipped, and no old share is
//! ever served.

use cd_core::hashing::fnv1a;
use cd_core::point::Point;
use dh_erasure::{encode, ShareHeader};
use dh_proto::node::NodeId;
use dh_store::{scan, FileShelves, Holder, ScratchPath, Shelves, WalRecord};

const M: usize = 4;
const K: usize = 2;

/// FNV-1a 64 of the scripted log, captured when the fixture was written.
const GOLDEN_FINGERPRINT: u64 = 0xA426_B562_32B6_C8B1;

/// Records the script appends (compaction rewrites are not appends).
const GOLDEN_APPENDS: u64 = 44;

fn read_fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(path).expect("the committed fixture")
}

fn fixture() -> Vec<u8> {
    read_fixture("golden_v2.wal")
}

fn payload(key: u64, version: u32) -> Vec<u8> {
    (0..48u32)
        .map(|i| (key as u8).wrapping_mul(17) ^ (version as u8).wrapping_mul(31) ^ i as u8)
        .collect()
}

fn node_of(key: u64, idx: usize) -> NodeId {
    NodeId(key as u32 * 8 + idx as u32)
}

/// Park shares `idxs` of generation `version`; no commit.
fn park(s: &mut FileShelves, key: u64, version: u32, idxs: std::ops::Range<usize>) {
    let shares = encode(&payload(key, version), K, M);
    for idx in idxs {
        let header = ShareHeader { version, index: idx as u8, k: K as u8, m: M as u8 };
        let holder = Holder::seal(node_of(key, idx), header, &shares[idx]);
        s.park(key, Point(key << 40 | 0xD15C), idx as u8, holder);
    }
}

fn put(s: &mut FileShelves, key: u64, version: u32) {
    park(s, key, version, 0..M);
    s.commit(key, version);
}

/// The scripted sequence (the store is left open, two parks buffered).
fn script(s: &mut FileShelves) {
    for key in 1..=4 {
        put(s, key, 1);
    }
    put(s, 1, 2); // overwrite
    park(s, 2, 2, 0..2); // torn put: parked, never committed
    s.unpark(3, 3);
    s.retire_hinted(node_of(1, 2), &[(1, 2)]); // the one slot that node holds
    assert_eq!(s.map()[&1].holders.keys().copied().collect::<Vec<_>>(), [0, 1, 3]);
    assert!(s.remove(4));
    assert!(!s.remove(9), "an unknown remove appends nothing");
    park(s, 2, 2, 2..3); // still buffered when the compaction starts
    s.compact().expect("compaction");
    put(s, 5, 1); // appends after the compacted image
    put(s, 1, 3);
    s.unpark(5, 0);
    park(s, 5, 2, 1..3); // left buffered: the drop flushes it
}

#[test]
fn the_scripted_log_is_byte_identical_to_the_parent_written_fixture() {
    let scratch = ScratchPath::new("golden-log-write");
    let mut s = FileShelves::open(scratch.path()).unwrap();
    script(&mut s);
    assert_eq!(s.records_appended(), GOLDEN_APPENDS);
    let wal_len = s.wal_len();
    drop(s);
    let bytes = std::fs::read(scratch.path()).unwrap();
    assert_eq!(bytes.len() as u64, wal_len, "wal_len must be the file's length");
    let golden = fixture();
    if let Some(at) = bytes.iter().zip(&golden).position(|(a, b)| a != b) {
        panic!("the log diverges from the fixture at byte {at}");
    }
    assert_eq!(bytes.len(), golden.len(), "one log is a prefix of the other");
    assert_eq!(
        fnv1a(&bytes),
        GOLDEN_FINGERPRINT,
        "fingerprint {:#018x} is not the parent's",
        fnv1a(&bytes)
    );
}

#[test]
fn the_parent_written_fixture_reopens_to_the_scripted_state() {
    assert_eq!(fnv1a(&fixture()), GOLDEN_FINGERPRINT, "the fixture itself was edited");
    let written = ScratchPath::new("golden-log-script");
    let mut want = FileShelves::open(written.path()).unwrap();
    script(&mut want);

    let copy = ScratchPath::new("golden-log-fixture");
    std::fs::write(copy.path(), fixture()).unwrap();
    let got = FileShelves::open(copy.path()).unwrap();
    assert_eq!(got.recovery().skipped, 0);
    assert_eq!(got.recovery().torn_bytes, 0);
    assert_eq!(got.snapshot(), want.snapshot());
    assert!(got.map() == want.map(), "same snapshot, different placement or share bytes");
    assert_eq!(got.live_len(), want.live_len());
    assert_eq!(got.wal_len(), want.wal_len());
    // item 2's torn generation is still parked beside the committed one
    assert_eq!(got.map()[&2].version, 1);
    assert_eq!(got.map()[&2].shares_of(2).len(), 3);
}

#[test]
fn the_retired_code_fixture_reopens_with_every_share_refused() {
    let old = read_fixture("golden_v1.wal");
    let parks = scan(&old.clone().into())
        .expect("a shelf WAL")
        .records
        .iter()
        .filter(|r| matches!(r, WalRecord::Park { .. }))
        .count();
    assert_eq!(parks, 20, "the log holds 20 share records");
    let copy = ScratchPath::new("golden-log-v1");
    std::fs::write(copy.path(), &old).unwrap();
    let got = FileShelves::open(copy.path()).unwrap();
    assert_eq!(got.recovery().torn_bytes, 0);
    assert_eq!(got.recovery().skipped, parks, "every old share is refused, nothing else");
    // its commits and its unpark find nothing to act on
    assert_eq!(got.shelved_shares(), 0);
    assert_eq!(got.items(), 0);
    assert_eq!(got.wal_len(), old.len() as u64);
}
