//! # dh-balance — achieving smoothness (Section 4)
//!
//! Every quantitative guarantee of the Distance Halving DHT degrades
//! with the smoothness `ρ` (the max/min segment-length ratio), so the
//! way joining servers choose their identifier points matters. This
//! crate implements the paper's ID-selection algorithms and the bucket
//! scheme that preserves smoothness under deletions:
//!
//! * **Single Choice** — a uniformly random point. Lemma 4.1: max
//!   segment `Θ(log n / n)`, min segment `Θ(1/n²)`.
//! * **Improved Single Choice** — sample a random point, split the
//!   segment covering it at its midpoint. Lemma 4.2: min segment
//!   `Ω(1/(n log n))`, max still `O(log n / n)`.
//! * **Multiple Choice** — sample `t·log n` points, split the longest
//!   segment found. Lemma 4.3: min segment ≥ `1/4n` w.h.p.;
//!   Theorem 4.4: self-corrects any adversarial starting configuration.
//! * **Bucket scheme** (§4.1) — contiguous chains of `Θ(log n)`
//!   servers rebalance internally and split/merge, keeping `ρ = O(1)`
//!   even under deletions (where the pure join algorithms fail).

#![deny(missing_docs)]

pub mod bucket;
pub mod churn;
pub mod ring;
pub mod strategy;

pub use bucket::BucketRing;
pub use ring::Ring;
pub use strategy::{IdStrategy, SegmentView};
