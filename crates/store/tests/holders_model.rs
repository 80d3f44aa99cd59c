//! [`Holders`] against the map it replaced: random histories of
//! inserts (new and replacing) and removes run on a `Holders` array
//! and on a `BTreeMap<u8, Holder>` reference, and after every step
//! the two agree on every index, on the (index, holder) pairs in
//! ascending order, and on `len` and `is_empty`. Equality and `Debug`
//! follow the pairs alone, whatever empty slots a history left behind,
//! so shelf maps compared item by item (the repair equivalence suites)
//! mean what they meant before.

use bytes::Bytes;
use dh_erasure::{seal, Share, ShareHeader};
use dh_proto::node::NodeId;
use dh_store::{Holder, Holders};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A holder of share `idx` sealed under a code of `m` shares. Its
/// header is malformed where `idx ≥ m`, as a forged share's may be.
fn holder(idx: u8, m: u8, node: u32, version: u32) -> Holder {
    let share = Share { index: idx, data: Bytes::from(vec![node as u8, version as u8]) };
    let header = ShareHeader { version, index: idx, k: 1, m };
    Holder { node: NodeId(node), version, sealed: seal(header, &share) }
}

/// A share index biased to the edges: 0, `m − 1`, 254, or anywhere up
/// to two past the code, which leaves gaps.
fn index(sel: u8, m: u8) -> u8 {
    match sel % 8 {
        0 | 1 => 0,
        2 | 3 => m - 1,
        4 => 254,
        _ => sel % (m + 2),
    }
}

/// The array and the map agree on everything a caller can read, and
/// the array keeps exactly `room` slots.
fn agree(got: &Holders, want: &BTreeMap<u8, Holder>, room: usize) -> Result<(), TestCaseError> {
    for idx in 0..=u8::MAX {
        prop_assert_eq!(got.get(&idx), want.get(&idx), "get({})", idx);
    }
    prop_assert!(got.iter().eq(want.iter()), "pairs: {:?} vs {:?}", got, want);
    prop_assert!(got.keys().eq(want.keys()));
    prop_assert!(got.values().eq(want.values()));
    prop_assert!(IntoIterator::into_iter(got).eq(want.iter()));
    prop_assert_eq!(got.len(), want.len());
    prop_assert_eq!(got.is_empty(), want.is_empty());
    // same printout as the map's
    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    prop_assert_eq!(got.capacity(), room);
    Ok(())
}

/// The same pairs, parked in ascending order on a fresh array.
fn rebuilt(want: &BTreeMap<u8, Holder>) -> Holders {
    let mut fresh = Holders::default();
    for (&idx, h) in want {
        fresh.insert(idx, h.clone());
    }
    fresh
}

proptest! {
    #[test]
    fn holders_behave_as_the_map_they_replaced(
        m in 1u8..9,
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u32..6), 1..80),
    ) {
        let mut got = Holders::default();
        let mut want: BTreeMap<u8, Holder> = BTreeMap::new();
        // the slots the history needs: the code's `m` once a
        // well-formed share is parked (its header sizes the array at
        // once, with no slot-by-slot growth), and one past any index
        // parked beyond the code; removes free none
        let mut room = 0;
        for (step, &(op, sel, node)) in ops.iter().enumerate() {
            let idx = index(sel, m);
            let (before, before_want) = (got.clone(), want.clone());
            match op % 16 {
                0..=7 => {
                    let h = holder(idx, m, node, u32::from(op >> 4));
                    prop_assert_eq!(got.insert(idx, h.clone()), want.insert(idx, h), "step {}", step);
                    room = room.max(if idx < m { usize::from(m) } else { usize::from(idx) + 1 });
                }
                _ => prop_assert_eq!(got.remove(&idx), want.remove(&idx), "step {}", step),
            }
            agree(&got, &want, room)?;
            // equality and printing follow the pairs, not the history
            let fresh = rebuilt(&want);
            prop_assert!(got == fresh, "step {}: {:?} != {:?}", step, got, fresh);
            prop_assert_eq!(format!("{got:?}"), format!("{fresh:?}"));
            prop_assert_eq!(got == before, want == before_want, "step {}", step);
        }
    }
}

#[test]
fn same_pairs_after_different_histories_are_equal() {
    let parked = |idx: u8| holder(idx, 4, u32::from(idx), 1);
    // park 0..4, then unpark 3
    let mut a = Holders::default();
    for idx in 0..4 {
        a.insert(idx, parked(idx));
    }
    a.remove(&3);
    // park 0..3
    let mut b = Holders::default();
    for idx in 0..3 {
        b.insert(idx, parked(idx));
    }
    // a share far past the code, gone again before 0..3 are parked
    let mut c = Holders::default();
    c.insert(254, holder(254, 4, 9, 1));
    c.remove(&254);
    for idx in (0..3).rev() {
        c.insert(idx, parked(idx));
    }
    assert_eq!((a.capacity(), b.capacity(), c.capacity()), (4, 4, 255));
    assert_eq!(a, b);
    assert_eq!(a, c);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(format!("{a:?}"), format!("{c:?}"));
    // the same indices with other sealed bytes are other holders
    let mut d = Holders::default();
    for idx in 0..3 {
        d.insert(idx, holder(idx, 3, u32::from(idx), 1));
    }
    assert_ne!(a, d);
    for idx in 0..3 {
        a.remove(&idx);
    }
    assert_eq!(a, Holders::default());
    assert_eq!(format!("{a:?}"), "{}");
}
