//! # dh-erasure — Reed-Solomon erasure coding over GF(2⁸)
//!
//! Section 6.2 of Naor & Wieder observes that in the overlapping DHT
//! all `Θ(log n)` servers holding a data item form a clique, so the
//! item can be stored as **erasure-code shares** instead of full
//! replicas — "the data stored by any small subset of the servers
//! suffices to reconstruct the data item" (citing digital fountains
//! [Byers et al.] and the erasure-vs-replication comparison of
//! Weatherspoon & Kubiatowicz). This crate supplies that substrate,
//! from scratch:
//!
//! * [`gf256`] — arithmetic in `GF(2⁸)` (AES polynomial `0x11B`) with
//!   log/antilog tables built at compile time,
//! * [`rs`] — a systematic Reed-Solomon code: shares `0..k` are the `k`
//!   data shards of [`shard_len`] bytes verbatim, and share `i ≥ k` is
//!   the Lagrange basis over the data points `1..=k` evaluated at
//!   `x_i = i + 1`, so any `k` shares reconstruct. [`encode`] computes
//!   only the `m − k` parity rows, [`encode_sealed`] the same shares
//!   already sealed (built in place, what a put parks), [`encode_row`]
//!   just one share (repair's lost share); [`try_decode`] copies the
//!   data shares it is given and computes only the missing shards (the
//!   k×k generator inverse on coefficients, then the same row kernel as
//!   `encode`),
//!   and reports a typed [`DecodeError`] — never a panic — when fewer
//!   than `k` distinct shares survive or the bytes are not a codeword,
//! * [`header`] — share versioning: the [`ShareHeader`] sealed in
//!   front of every stored or shipped share, so quorum reads only
//!   combine shares of one item generation and repair re-materializes
//!   with the stored generation's `(k, m)` (used by `dh_replica`). Its
//!   magic byte names the code: a share sealed by the retired
//!   non-systematic coder opens as [`HeaderError::RetiredCode`].

#![deny(missing_docs)]

pub mod gf256;
pub mod header;
pub mod rs;

pub use header::{open_shared, seal, HeaderError, ShareHeader, HEADER_BYTES};
pub use rs::{decode, encode, encode_row, encode_sealed, shard_len, try_decode, DecodeError, Share};
