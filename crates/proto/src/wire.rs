//! The typed RPC vocabulary of the Distance Halving system.
//!
//! Every message a server can receive is a [`Wire`] variant. Routing
//! messages (`LookupStep` and the routed storage RPCs) carry the
//! op header — op id, attempt and step stamps — so duplicated or
//! reordered deliveries and retransmissions from old attempts are
//! recognised and ignored by the receiving state machine.
//!
//! [`Wire::wire_bytes`] is the byte-accounting model: a fixed header
//! (op id + tag + src/dst + stamps) plus the variant payload. The
//! Distance Halving Lookup's message header carries the digit string
//! `τ` (the paper's phase-2 header, §2.2.2), so its size is charged
//! per digit; share payloads are charged on the messages that carry
//! them (`StoreShare`, `ShareReply`, `RepairPush`), never on the routed
//! request.

use crate::node::NodeId;
use cd_core::point::Point;

/// Identifies one submitted operation within an engine run.
pub type OpId = u32;

/// Which lookup algorithm a routed message follows. Mirrors
/// `dh_dht::LookupKind` (which lives above this crate); the engine
/// works with this wire-level copy and `dh_dht` converts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteKind {
    /// Fast Lookup (§2.2.1): deterministic shortest paths.
    Fast,
    /// Distance Halving Lookup (§2.2.2): randomized two-phase routing.
    DistanceHalving,
    /// Greedy routing (§4's Chord-like instances): each hop applies the
    /// topology's memoryless [`crate::engine::Topology::greedy_step`].
    Greedy,
}

/// What a routed message does once it reaches the server covering its
/// target point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Pure lookup: report the covering server.
    Locate,
    /// Delete an item.
    Remove {
        /// Item key.
        key: u64,
    },
    /// Replicated store (§6.2): route to the clique entry, then fan
    /// one [`Wire::StoreShare`] out to each of the `m` covers of
    /// `item`, asking `k − 1` of them beside the coordinator to ack —
    /// more only where one stays silent; the op completes once `k`
    /// covers acknowledged (write quorum).
    PutShares {
        /// Item key.
        key: u64,
        /// Per-share payload size in bytes (header included).
        len: u32,
        /// Total number of shares / clique size.
        m: u8,
        /// Reconstruction threshold (write quorum).
        k: u8,
        /// The item's hashed location `h(key)` — the clique is the `m`
        /// consecutive covers starting at the server covering this
        /// point, wherever the routed phase entered it.
        item: Point,
    },
    /// Quorum read (§6.2): route to the clique entry, then send a
    /// [`Wire::FetchShare`] to `k − 1` covers beside the coordinator's
    /// own share — more only where a cover lacks its share or stays
    /// silent; `k` found responses reconstruct (or every cover has
    /// answered: a definitive miss).
    GetShares {
        /// Item key.
        key: u64,
        /// Total number of shares / clique size.
        m: u8,
        /// Reconstruction threshold (read quorum).
        k: u8,
        /// The item's hashed location `h(key)`.
        item: Point,
    },
}

impl Action {
    /// Is this a replicated (clique fan-out) storage action?
    pub fn is_replicated(&self) -> bool {
        matches!(self, Action::PutShares { .. } | Action::GetShares { .. })
    }
}

/// A typed RPC between two servers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Wire {
    /// One hop of a routed operation. The header stamps (`attempt`,
    /// `step`) let receivers discard duplicates and stale attempts;
    /// `digits` is the length of the carried digit string `τ` (the DH
    /// lookup header; 0 for Fast Lookup).
    LookupStep {
        /// The operation this hop belongs to.
        op: OpId,
        /// Retry attempt number (end-to-end retransmission).
        attempt: u32,
        /// Hop counter within the attempt.
        step: u32,
        /// The continuous point this hop targets.
        at: Point,
        /// Length of the digit string carried in the header.
        digits: u32,
        /// What to do at the destination.
        action: Action,
    },
    /// Ask the server covering `x` to split its segment at `x`
    /// (Algorithm Join step 3).
    JoinSplit {
        /// The joiner's chosen identifier point.
        x: Point,
    },
    /// Hand the sender's segment to the ring predecessor (simple Leave,
    /// §2.1). Its shares travel as repair frames to the covers entering
    /// its cliques.
    LeaveMerge,
    /// Tell a watcher that segments its table lists changed (step 4 of
    /// Join/Leave): one per watcher per churn event, however many of
    /// its entries it must refresh.
    NeighborDiff {
        /// Number of table entries the receiver must refresh.
        entries: u32,
    },
    /// Clique fan-out of a replicated put (§6.2): the coordinator
    /// hands cover `idx` its Reed-Solomon share of `key`. Stamped with
    /// the op header so stale attempts are recognised. Every cover
    /// gets one; only those the coordinator asks to (`ack`) answer
    /// with [`Wire::ShareAck`].
    StoreShare {
        /// The replicated op this share placement belongs to.
        op: OpId,
        /// Retry attempt number of the op.
        attempt: u32,
        /// Share index within the clique (`0..m`).
        idx: u8,
        /// Item key.
        key: u64,
        /// Share payload size in bytes (header included).
        len: u32,
        /// Whether the holder acks: set for the `k − 1` covers that
        /// complete the write quorum and for their backups. It rides in
        /// the top bit of the `len` field (a share is far below 2 GiB),
        /// so it costs no byte.
        ack: bool,
    },
    /// A cover's acknowledgement, asked for by the [`Wire::StoreShare`]
    /// it answers, that it durably holds share `idx` of the op's item.
    ShareAck {
        /// The replicated op.
        op: OpId,
        /// Attempt stamp echoed from the [`Wire::StoreShare`].
        attempt: u32,
        /// Acknowledged share index.
        idx: u8,
    },
    /// Clique fan-out of a quorum read (§6.2): ask a cover for its
    /// share of `key` — whichever index it holds, since any `k`
    /// distinct shares reconstruct. Answered by [`Wire::ShareReply`].
    /// On the wire: the key and one byte carrying the wave.
    FetchShare {
        /// The replicated op.
        op: OpId,
        /// Retry attempt number of the op.
        attempt: u32,
        /// Item key.
        key: u64,
        /// Wave: 0 for the initial `k − 1` fetches, `n` for the `n`-th
        /// fetch a read added past a cover that lacked its share or
        /// stayed silent.
        wave: u8,
    },
    /// A cover's answer to [`Wire::FetchShare`]: whether it holds a
    /// share of the committed generation and, if so, which index and
    /// the share payload (charged by `len`).
    ShareReply {
        /// The replicated op.
        op: OpId,
        /// Attempt stamp echoed from the request.
        attempt: u32,
        /// The share index the sender holds (0 when `!found`).
        idx: u8,
        /// Item key.
        key: u64,
        /// Does the sender hold the share?
        found: bool,
        /// Share payload size in bytes (0 when `!found`).
        len: u32,
    },
    /// Anti-entropy digest: a compact list of `(key, version)` entries
    /// the sender believes the receiver should hold. Exchanged after
    /// churn shifts cover membership; mismatches trigger
    /// [`Wire::RepairPull`]. Bare protocol message (no op machine).
    ShareDigest {
        /// Number of digest entries carried.
        keys: u32,
    },
    /// Repair after a crash: the cover entering the clique asks a kept
    /// member for its share of `key`, so the crashed server's lost
    /// share can be rebuilt from any `k`. Answered by
    /// [`Wire::RepairPush`]. A join or a graceful leave pulls nothing:
    /// its share is handed over unasked.
    RepairPull {
        /// Item key being repaired.
        key: u64,
        /// Share index the *sender* needs to re-materialize.
        idx: u8,
    },
    /// Repair data transfer: a kept member answering a
    /// [`Wire::RepairPull`], or — on a join or a leave — the member
    /// that left the clique handing its share to the cover that
    /// entered it.
    RepairPush {
        /// Item key being repaired.
        key: u64,
        /// Share index of the shipped share.
        idx: u8,
        /// Share payload size in bytes (header included).
        len: u32,
    },
    /// Coalesced repair requests: all the `(key, idx)` pulls one
    /// repairing cover owes a single live holder, shipped as one frame
    /// instead of `keys` separate [`Wire::RepairPull`]s. Saves
    /// `keys - 1` message headers per (cover, holder) pair. Bare
    /// protocol message (no op machine).
    RepairPullBatch {
        /// Number of `(key, idx)` pull entries carried.
        keys: u32,
    },
    /// Coalesced repair data transfer answering a
    /// [`Wire::RepairPullBatch`]: every requested share from one
    /// holder to one cover in a single frame. `bytes` is the summed
    /// share payload size.
    RepairPushBatch {
        /// Number of `(key, idx, len)` share entries carried.
        keys: u32,
        /// Total share payload bytes across all entries.
        bytes: u32,
    },
}

impl Wire {
    /// Fixed per-message overhead: src/dst (8), tag (1), op id (4),
    /// attempt + step stamps (8).
    pub const HEADER_BYTES: u64 = 21;

    /// Modeled size of this message on the wire.
    pub fn wire_bytes(&self) -> u64 {
        Self::HEADER_BYTES
            + match self {
                // target point + digit-string header (4 bits per digit
                // covers ∆ ≤ 16) + action payload
                Wire::LookupStep { digits, action, .. } => {
                    8 + u64::from(*digits).div_ceil(2)
                        + match action {
                            Action::Locate => 0,
                            Action::Remove { .. } => 8,
                            // key + per-share len + (m, k) + item point;
                            // the routed request carries no share data —
                            // shares travel in StoreShare/ShareReply
                            Action::PutShares { .. } => 22,
                            Action::GetShares { .. } => 18,
                        }
                }
                Wire::JoinSplit { .. } => 8,
                Wire::LeaveMerge => 4,
                Wire::NeighborDiff { entries } => 4 + 12 * u64::from(*entries),
                // key + idx + len field (its top bit the ack bit) + the
                // share payload itself
                Wire::StoreShare { len, .. } => 13 + u64::from(*len),
                Wire::ShareAck { .. } => 1,
                Wire::FetchShare { .. } => 9,
                Wire::ShareReply { found, len, .. } => {
                    13 + if *found { 1 + u64::from(*len) } else { 1 }
                }
                // one (key, version) entry per digest line
                Wire::ShareDigest { keys } => 4 + 12 * u64::from(*keys),
                Wire::RepairPull { .. } => 9,
                Wire::RepairPush { len, .. } => 13 + u64::from(*len),
                // count field + one (key, idx) entry per pull
                Wire::RepairPullBatch { keys } => 4 + 9 * u64::from(*keys),
                // count field + one (key, idx, len) entry per share +
                // the summed share payloads
                Wire::RepairPushBatch { keys, bytes } => {
                    4 + 13 * u64::from(*keys) + u64::from(*bytes)
                }
            }
    }

    /// The op this message belongs to, if it is a routed op message.
    pub fn op(&self) -> Option<OpId> {
        match self {
            Wire::LookupStep { op, .. }
            | Wire::StoreShare { op, .. }
            | Wire::ShareAck { op, .. }
            | Wire::FetchShare { op, .. }
            | Wire::ShareReply { op, .. } => Some(*op),
            _ => None,
        }
    }

    /// Short tag for traces and fingerprints.
    pub fn tag(&self) -> u8 {
        match self {
            Wire::LookupStep { .. } => 0,
            Wire::JoinSplit { .. } => 1,
            Wire::LeaveMerge => 2,
            Wire::NeighborDiff { .. } => 3,
            Wire::StoreShare { .. } => 4,
            Wire::ShareAck { .. } => 5,
            Wire::FetchShare { .. } => 6,
            Wire::ShareReply { .. } => 7,
            Wire::ShareDigest { .. } => 8,
            Wire::RepairPull { .. } => 9,
            Wire::RepairPush { .. } => 10,
            Wire::RepairPullBatch { .. } => 11,
            Wire::RepairPushBatch { .. } => 12,
        }
    }
}

/// A message in flight: sender, receiver and payload. The `corrupt`
/// flag models §6's false message injection — a faulty transport
/// delivers the message but the payload integrity is gone.
#[derive(Clone, Copy, Debug)]
pub struct Envelope {
    /// Sending server.
    pub src: NodeId,
    /// Receiving server.
    pub dst: NodeId,
    /// The RPC.
    pub msg: Wire,
    /// Whether a faulty link corrupted the payload in flight.
    pub corrupt: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_model_is_monotone_in_payload() {
        let routed = |len| Wire::LookupStep {
            op: 0,
            attempt: 0,
            step: 0,
            at: Point(0),
            digits: 0,
            action: Action::PutShares { key: 1, len, m: 8, k: 4, item: Point(0) },
        };
        // the routed request is sized by its header, whatever it stores…
        assert_eq!(routed(100).wire_bytes(), routed(10).wire_bytes());
        assert!(routed(10).wire_bytes() > Wire::HEADER_BYTES);
        // …and the share fan-out pays for every payload byte
        let store = |len| Wire::StoreShare { op: 0, attempt: 0, idx: 1, key: 1, len, ack: false };
        assert_eq!(store(100).wire_bytes(), store(10).wire_bytes() + 90);
    }

    #[test]
    fn dh_header_charges_digits() {
        let mk = |digits| Wire::LookupStep {
            op: 0,
            attempt: 0,
            step: 0,
            at: Point(0),
            digits,
            action: Action::Locate,
        };
        assert!(mk(16).wire_bytes() > mk(0).wire_bytes());
    }

    #[test]
    fn replica_messages_charge_share_payloads() {
        let store = |len, ack| Wire::StoreShare { op: 0, attempt: 1, idx: 3, key: 9, len, ack };
        assert_eq!(store(100, false).wire_bytes(), store(0, false).wire_bytes() + 100);
        // asking for an ack costs the store nothing: key, idx, len
        assert_eq!(store(100, true).wire_bytes(), Wire::HEADER_BYTES + 13 + 100);
        assert_eq!(store(100, true).wire_bytes(), store(100, false).wire_bytes());
        let reply = |found, len| Wire::ShareReply { op: 0, attempt: 1, idx: 3, key: 9, found, len };
        assert!(reply(true, 64).wire_bytes() > reply(false, 0).wire_bytes());
        // a fetch is the key plus a wave byte; naming the share held
        // costs the reply nothing beyond its idx byte
        let fetch = Wire::FetchShare { op: 0, attempt: 1, key: 9, wave: 2 };
        assert_eq!(fetch.wire_bytes(), Wire::HEADER_BYTES + 9);
        let named = Wire::ShareReply { op: 0, attempt: 1, idx: 7, key: 9, found: true, len: 64 };
        assert_eq!(named.wire_bytes(), reply(true, 64).wire_bytes());
        // control messages are small: an ack is near the bare header
        assert_eq!(Wire::ShareAck { op: 0, attempt: 1, idx: 3 }.wire_bytes(), Wire::HEADER_BYTES + 1);
        // digests charge per entry, like NeighborDiff
        assert_eq!(
            Wire::ShareDigest { keys: 5 }.wire_bytes() - Wire::ShareDigest { keys: 0 }.wire_bytes(),
            5 * 12
        );
        // the routed request never carries the payload itself
        let routed = Wire::LookupStep {
            op: 0,
            attempt: 1,
            step: 0,
            at: Point(0),
            digits: 0,
            action: Action::PutShares { key: 9, len: 4096, m: 8, k: 4, item: Point(0) },
        };
        assert!(routed.wire_bytes() < 100);
        assert!(Action::PutShares { key: 0, len: 0, m: 1, k: 1, item: Point(0) }.is_replicated());
        assert!(!Action::Locate.is_replicated());
    }

    #[test]
    fn batched_repair_frames_amortize_headers() {
        // one batch of n pulls costs one header; n singles cost n
        let n = 7u32;
        let singles = u64::from(n) * Wire::RepairPull { key: 1, idx: 0 }.wire_bytes();
        let batch = Wire::RepairPullBatch { keys: n }.wire_bytes();
        assert!(batch < singles);
        assert_eq!(batch, Wire::HEADER_BYTES + 4 + 9 * u64::from(n));
        // push batch charges entries plus summed payload
        let pb = |keys, bytes| Wire::RepairPushBatch { keys, bytes }.wire_bytes();
        assert_eq!(pb(3, 300) - pb(3, 0), 300);
        assert_eq!(pb(3, 0) - pb(0, 0), 3 * 13);
        // batch frames are bare protocol messages
        assert_eq!(Wire::RepairPullBatch { keys: 1 }.op(), None);
        assert_eq!(Wire::RepairPushBatch { keys: 1, bytes: 9 }.op(), None);
        // tags stay distinct
        assert_eq!(Wire::RepairPullBatch { keys: 0 }.tag(), 11);
        assert_eq!(Wire::RepairPushBatch { keys: 0, bytes: 0 }.tag(), 12);
    }
}
