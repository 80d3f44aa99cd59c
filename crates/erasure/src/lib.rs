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
//! * [`rs`] — a non-systematic Reed-Solomon code (Vandermonde
//!   evaluation at `x_i = i + 1`; no share is a verbatim shard):
//!   `encode` produces `m` shares of [`shard_len`] bytes from `k` data
//!   shards, [`encode_row`] just one of them (repair's lost share);
//!   [`try_decode`] reconstructs from **any** `k` of them
//!   (inverting the k×k Vandermonde, then the same row kernel as
//!   `encode`) and reports a typed [`DecodeError`] — never a panic —
//!   when fewer than `k` distinct shares survive or the bytes are not
//!   a codeword,
//! * [`header`] — share versioning: the [`ShareHeader`] sealed in
//!   front of every stored or shipped share, so quorum reads only
//!   combine shares of one item generation and repair re-materializes
//!   with the stored generation's `(k, m)` (used by `dh_replica`).

#![deny(missing_docs)]

pub mod gf256;
pub mod header;
pub mod rs;

pub use header::{open, open_shared, seal, sealed_len, HeaderError, ShareHeader, HEADER_BYTES};
pub use rs::{decode, encode, encode_row, shard_len, try_decode, DecodeError, Share};
