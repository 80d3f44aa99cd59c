//! # dh-proto — the wire-level protocol API
//!
//! The paper's algorithms (§2.2, §6) are *local* protocols: every hop
//! is a message from a server to an entry of its **own** neighbor
//! table. This crate makes that explicit. It sits *below* the network
//! crates and defines
//!
//! * [`wire::Wire`] — the typed RPC vocabulary of the Distance Halving
//!   system (`LookupStep`, `JoinSplit`, `LeaveMerge`, `NeighborDiff`,
//!   the routed `PutShares`/`GetShares`/`Remove`, and the §6.2
//!   replication vocabulary: `StoreShare`/`ShareAck`, `FetchShare`/`ShareReply`,
//!   `ShareDigest`/`RepairPull`/`RepairPush`), with per-message byte
//!   accounting;
//! * [`transport::Transport`] — the pluggable delivery substrate.
//!   [`transport::Inline`] is zero-overhead direct dispatch (routes
//!   bit-identical to the synchronous algorithms),
//!   [`transport::Sim`] models per-link latency, loss, duplication and
//!   reordering, [`transport::Recorder`] folds every delivery decision
//!   into the fingerprint the pins assert, and
//!   [`fault::ChaosNet`] is the one fault transport: the §6 failure
//!   models (fail-stop, false message injection) as two node sets,
//!   plus the grey failures — partitions (incl. asymmetric one-way
//!   cuts) with heal events, per-node service-latency multipliers,
//!   scheduled flapping and loss bursts, all deterministic functions
//!   of the chaos seed;
//! * [`health::NetHealth`] — per-destination Jacobson RTT estimators
//!   plus an accrual suspicion failure detector, shared across engine
//!   runs via [`engine::Engine::with_health`]; the opt-in
//!   [`engine::RetryPolicy::hedge`] flag turns it into
//!   per-destination timeouts with deterministic backoff + jitter,
//!   suspicion-ordered hedged quorum reads, and planned walks;
//! * [`engine::Engine`] — a deterministic discrete-event runtime
//!   (seeded, `(time, seq)`-ordered clock over lane-FIFO event queues)
//!   that drives per-node protocol state machines over any
//!   [`engine::Topology`]. Each hop decision uses only the current
//!   node's own table (the hedged walk planner, which prices candidate
//!   walks over other servers' tables, is the one exception — see
//!   [`engine`]), messages carry the op header (attempt/step
//!   stamps make duplicates and stale attempts harmless), and dropped
//!   messages are recovered by end-to-end timeout + retry. One
//!   engine on the caller's thread is the only way an op runs.
//!
//! `dh_dht` implements [`engine::Topology`] for its `DhNetwork` and
//! re-exports [`NodeId`]; higher layers (`dh_replica`, fault
//! experiments, the `cd_bench` scenarios) drive their operations
//! through the engine and inherit latency/loss/accounting for free.
//!
//! # Determinism
//!
//! Everything is a pure function of the seeds: events are ordered by
//! `(time, sequence-number)`, per-op randomness comes from
//! `sub_rng(engine_seed, op)`, and transport randomness from the
//! transport's own seed. Same seeds ⇒ identical event trace, message
//! counts and outcomes, independent of platform (the workspace's
//! vendored `rand` is integer-only and stream-stable).

#![deny(missing_docs)]

pub mod engine;
pub mod fault;
pub mod health;
pub mod node;
pub mod transport;
pub mod wire;

pub use engine::{Engine, EngineStats, NoShares, OpOutcome, Path, RetryPolicy, ShareView, Topology};
pub use fault::{ChaosNet, CutDirection, FaultModel, FlapSchedule, LossBurst, Partition};
pub use health::{NetHealth, RttEstimate};
pub use node::NodeId;
pub use transport::{Delivery, Inline, Recorder, Sim, Transport};
pub use wire::{Envelope, OpId, Wire};
