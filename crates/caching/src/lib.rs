//! # dh-caching — dynamic caching / hot-spot relief (Section 3)
//!
//! A popular data item `i` would swamp the server holding `h(i)` and
//! congest its surroundings. The paper's protocol exploits a structural
//! gift of the Distance Halving graph: **every point is the root of an
//! embedded infinite binary tree** — the *path tree*, where the
//! children of a node `z` are `ℓ(z)` and `r(z)` — and phase 2 of the
//! Distance Halving Lookup delivers every request to the root along a
//! *uniformly random* leaf-to-root path of that very tree. Caching the
//! item along a subtree (the *active tree*) therefore spreads requests
//! evenly, with **no extra connections and no extra hops**.
//!
//! Protocol (Continuous Hot Spots Protocol, §3.1):
//!
//! 1. a request is served by the first active node on its
//!    (leaf-to-root) path; each active node counts the requests it
//!    served this epoch;
//! 2. once a node serves more than the threshold `c`, it replicates the
//!    item into both children, which become active;
//! 3. at the end of an epoch the tree *collapses* bottom-up: two
//!    sibling leaves that each served fewer than `c` requests are
//!    deactivated (recursively).
//!
//! Guarantees reproduced by the tests and experiments:
//! Observation 3.1 (active tree ≤ 4q/c nodes), Lemma 3.3 (depth ≤
//! log(q/c) + O(1) w.h.p.), Theorem 3.6 (per-server hit bound) and
//! Theorem 3.8 (multi-hotspot cache size O(log n), supplies O(log² n)).

#![deny(missing_docs)]

pub mod protocol;
pub mod tree;

pub use protocol::{CachedDht, EpochReport, Served};
pub use tree::{ActiveTree, PathTreeNode};
