//! # dh-dht — the continuous-discrete DHT
//!
//! The discrete half of the continuous-discrete construction
//! (Section 2 of Naor & Wieder), generic over the continuous graph:
//! `n` servers decompose the circle into segments
//! `s(x_i) = [x_i, x_{i+1})`; two servers are connected iff their
//! segments contain adjacent points of the chosen
//! [`cd_core::graph::ContinuousGraph`] (plus ring edges). The crate
//! provides
//!
//! * [`network::CdNetwork`] — the discrete graph of **any** instance,
//!   with dynamic join/leave and neighbor-table derivation (items live
//!   in `dh_replica`, which places them on this network's cover
//!   cliques); [`network::DhNetwork`] = `CdNetwork<DistanceHalving>`
//!   is the paper's flagship instance, and the Chord-like
//!   (`CdNetwork<ChordLike>`) and base-∆ de Bruijn
//!   (`CdNetwork<DeBruijn>`) instances of §4 run the same machinery,
//! * [`lookup`] — Fast Lookup (§2.2.1) and Distance Halving Lookup
//!   (§2.2.2) for digit instances of any degree ∆ (§2.3), and greedy
//!   clockwise routing for the Chord-like instances,
//! * [`analysis`] — exact edge/degree counting used by the
//!   Theorem 2.1/2.2 experiments and the De Bruijn isomorphism check,
//! * [`metrics`] + [`driver`] — congestion accounting (per-server
//!   message counters) and the workload drivers for the
//!   congestion/permutation-routing experiments,
//! * [`proto`] — the network on the `dh_proto` wire API: the
//!   [`dh_proto::Topology`] impl, message-driven lookup batches over
//!   any transport, and churn as wire traffic.
//!
//! Everything runs on the caller's thread (DESIGN.md Non-goals, "No
//! thread pool"): the [`driver`] workloads seed lookup `i` from
//! `sub_rng(seed, i)`, so a batch is a pure function of
//! `(network, seed)`.
//!
//! Routing uses **only local state**: every hop moves along an entry of
//! the current node's own neighbor table, and the implementation
//! panics if a required discrete edge is missing — turning the paper's
//! edge-derivation lemmas into runtime-checked invariants.

#![deny(missing_docs)]

pub mod analysis;
pub mod driver;
pub mod lookup;
pub mod metrics;
pub mod network;
pub mod proto;

pub use cd_core::graph::ContinuousGraph;
pub use lookup::{LookupKind, LookupScratch, Route};
pub use metrics::LoadCounters;
pub use network::{CdNetwork, ChordLike, DeBruijn, DhNetwork, DistanceHalving, NodeId};
pub use proto::{join_over, leave_over, lookups_over, MsgBatch};
