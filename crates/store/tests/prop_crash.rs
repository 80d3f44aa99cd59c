//! Property test over the whole crash matrix: random shelf-verb
//! sequences × every-record crash points × reopen.
//!
//! Four invariants, checked against an in-memory shadow and the log:
//!
//! 1. **Backend equivalence** — a [`FileShelves`] fed a verb sequence
//!    materializes exactly the map a [`MemShelves`] does.
//! 2. **Prefix recovery** — a store killed after any `r` records, with
//!    any torn tail shorter than one record, reopens to exactly the
//!    state of replaying the first `r` records of the untorn log.
//! 3. **Write discipline** — because every put parks before it
//!    commits, the reopened store never serves a generation whose
//!    commit record did not land (asserted via the replay equality:
//!    the shadow's `version` is the last committed one by
//!    construction).
//! 4. **A commit is never durable before its shares** — the rule
//!    `FileShelves::append` keeps while it coalesces parks. The crash
//!    run writes through, so this is checked on the coalesced log of
//!    the full run, at every record boundary: each committed item
//!    holds a share of its committed generation at every index its put
//!    parked before committing, unless a later record of that prefix
//!    re-parked, unparked, retired or removed the slot.

use dh_store::shelf::apply_record;
use dh_store::{
    scan, CrashPoint, FileShelves, Holder, MemShelves, ScratchPath, Shelves, WalRecord,
};
use bytes::Bytes;
use cd_core::point::Point;
use dh_erasure::{encode, ShareHeader};
use dh_proto::node::NodeId;
use proptest::prelude::*;

const M: usize = 4;
const K: usize = 2;

/// One shelf-level operation of a generated history.
#[derive(Clone, Debug)]
enum Op {
    Put { key: u64, len: usize },
    Remove { key: u64 },
    Unpark { key: u64, idx: u8 },
    Retire { node: u32 },
}

fn ops_from(seed: u64, count: usize) -> Vec<Op> {
    let mut x = seed | 1;
    let mut next = move || {
        // splitmix-style scramble, enough to spread the op mix
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(27) ^ (x >> 31);
        x
    };
    (0..count)
        .map(|_| {
            let r = next();
            let key = next() % 6; // small keyspace → overwrites
            match r % 10 {
                0..=5 => Op::Put { key, len: 4 + (next() % 48) as usize },
                6..=7 => Op::Remove { key },
                8 => Op::Unpark { key, idx: (next() % M as u64) as u8 },
                _ => Op::Retire { node: (next() % 12) as u32 },
            }
        })
        .collect()
}

/// The server that holds share `idx` of `key` in [`apply_op`]'s puts.
fn holder_node(key: u64, idx: u8) -> NodeId {
    NodeId((key as u32) * 8 + u32::from(idx))
}

/// Invariant 4 at the crash point after `prefix`, whose replay is
/// `state`: every committed item holds a share of its committed
/// generation at each index its put parked (all `M`, before the
/// commit), unless a record after the commit touched that slot.
fn committed_shares_held(prefix: &[WalRecord], state: &MemShelves) -> Result<(), String> {
    for (&key, item) in state.map() {
        let last_commit = prefix.iter().rposition(|r| matches!(*r, WalRecord::Commit { key: k, .. } if k == key));
        let Some(c) = last_commit else { continue };
        let WalRecord::Commit { version, .. } = prefix[c] else { unreachable!() };
        for idx in 0..M as u8 {
            let touched = prefix[c + 1..].iter().any(|r| match *r {
                WalRecord::Park { key: k, idx: i, .. } | WalRecord::Unpark { key: k, idx: i } => {
                    (k, i) == (key, idx)
                }
                WalRecord::Remove { key: k } => k == key,
                WalRecord::Retire { node } => node == holder_node(key, idx),
                WalRecord::Commit { .. } => false,
            });
            let held = item.holders.get(&idx).is_some_and(|h| h.version == version);
            if !touched && !held {
                return Err(format!("item {key} committed v{version} without its share {idx}"));
            }
        }
    }
    Ok(())
}

/// Drive one op through any backend with the put discipline of the
/// replicated store: park every share, commit last.
fn apply_op(op: &Op, shelves: &mut impl Shelves) {
    match *op {
        Op::Put { key, len } => {
            let payload: Vec<u8> = (0..len).map(|i| (key as u8) ^ (i as u8)).collect();
            let version = shelves.map().get(&key).map(|it| it.version).unwrap_or(0) + 1;
            let shares = encode(&payload, K, M);
            for (idx, share) in shares.iter().enumerate() {
                let header = ShareHeader {
                    version,
                    index: idx as u8,
                    k: K as u8,
                    m: M as u8,
                };
                let node = holder_node(key, idx as u8);
                shelves.park(key, Point(key << 32), idx as u8, Holder::seal(node, header, share));
            }
            shelves.commit(key, version);
        }
        Op::Remove { key } => {
            shelves.remove(key);
        }
        Op::Unpark { key, idx } => shelves.unpark(key, idx),
        Op::Retire { node } => {
            shelves.retire(NodeId(node));
        }
    }
}

proptest! {
    #[test]
    fn prop_backends_agree_and_every_crash_point_recovers(
        seed: u64, count in 4usize..24, cut: u64, torn in 0usize..21) {
        let ops = ops_from(seed, count);

        // 1. full run: file backend vs in-memory shadow
        let scratch = ScratchPath::new("prop-full");
        let mut file = FileShelves::open(scratch.path()).unwrap();
        file.set_auto_compact(0); // keep the log = the verb history
        let mut shadow = MemShelves::new();
        for op in &ops {
            apply_op(op, &mut file);
            apply_op(op, &mut shadow);
        }
        prop_assert_eq!(file.map(), shadow.map(), "file and mem backends diverged");
        let total = file.records_appended();
        drop(file);

        // the untorn log, reread: replaying any prefix of it is the
        // ground truth for what a crash at that boundary must recover
        let bytes = Bytes::from(std::fs::read(scratch.path()).unwrap());
        let full = scan(&bytes).unwrap();
        prop_assert_eq!(full.records.len() as u64, total);
        prop_assert_eq!(full.skipped, 0);
        prop_assert_eq!(full.torn_bytes, 0);

        // 4. a process death leaves a prefix of the coalesced log:
        // at every record boundary, no commit is durable before its
        // shares
        let mut state = MemShelves::new();
        for (r, rec) in full.records.iter().enumerate() {
            apply_record(rec, &mut state);
            let held = committed_shares_held(&full.records[..=r], &state);
            prop_assert!(held.is_ok(), "crash after record {}: {}", r + 1, held.unwrap_err());
        }

        // 2. crash run: kill the write path after `after` records with
        // a sub-record torn tail, reopen, compare to the prefix replay
        let after = cut % (total + 1);
        let crash_scratch = ScratchPath::new("prop-crash");
        let mut crashed = FileShelves::open(crash_scratch.path()).unwrap();
        crashed.set_auto_compact(0);
        crashed.arm(CrashPoint { after_records: after, torn_bytes: torn });
        for op in &ops {
            apply_op(op, &mut crashed);
        }
        prop_assert_eq!(crashed.crashed(), after < total, "crash point armed wrong");
        drop(crashed);

        let reopened = FileShelves::open(crash_scratch.path()).unwrap();
        let mut expected = MemShelves::new();
        for rec in &full.records[..after as usize] {
            apply_record(rec, &mut expected);
        }
        prop_assert_eq!(reopened.recovery().records, after as usize);
        prop_assert_eq!(
            reopened.map(), expected.map(),
            "crash after {} of {} records (torn {}) recovered wrong state",
            after, total, torn
        );
    }
}
