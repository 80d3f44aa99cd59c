//! # dh-store — crash-consistent WAL-backed shelf storage
//!
//! PR 5's replicated store protects items against fail-stop of
//! *other* servers, but every share lives in RAM: a process crash
//! loses a node's entire shelf and converts a restart into a full
//! repair storm. This crate changes the failure model from
//! "crash = data loss + repair storm" to "crash = reopen + resume":
//!
//! * [`Shelves`] is the five-verb storage backend trait `dh_replica`
//!   mutates shelves through (`park`/`commit`/`unpark`/`remove`/
//!   `retire`) plus the materialized read [`Shelves::map`].
//!   [`MemShelves`] is the RAM backend (PR 5 behavior, factored behind
//!   the trait); [`FileShelves`] additionally appends every verb to a
//!   single append-only **write-ahead log** before applying it.
//! * The WAL ([`wal`]) frames each record with a magic, a length and a
//!   CRC-32. A put follows the **atomic write sequence** — share
//!   (`Park`) records first, the `Commit` record last — so a crash
//!   anywhere leaves the previous committed generation readable and
//!   the torn one invisible, exactly mirroring the in-memory
//!   torn-write parking of `dh_replica`.
//! * The **recovery scan** ([`wal::scan`]) on [`FileShelves::open`]
//!   truncates a torn tail and *skips* corrupt interior records
//!   instead of failing: one flipped bit costs one record, never the
//!   store. Each item's recovered shares are copied into one buffer of
//!   its own, so a reopened store holds its live state and frees the
//!   file buffer before `open` returns.
//! * **Compaction** ([`FileShelves::compact`]) streams the live state
//!   to a fresh file through a 64 KiB writer and atomically renames it
//!   over the log, so the WAL does not grow without bound; it runs
//!   automatically once the log dwarfs the live state.
//! * [`CrashPoint`] is the deterministic crash-injection hook: it
//!   kills the write path after any chosen record with any chosen
//!   number of torn bytes, which is what lets the tests sweep the
//!   *entire* crash matrix without threads, signals or timing.
//! * [`TamperFile`] flips bits and truncates byte ranges of a closed
//!   WAL — the file-layer corruption half of the fault model.
//!
//! [`ShelfView`] adapts any backend to the engine's
//! [`dh_proto::engine::ShareView`], so
//! [`dh_proto::engine::Engine::run`] takes a
//! [`FileShelves`] as readily as the in-memory shelves —
//! `dh_replica::ReplicatedDht` runs unmodified over either backend,
//! with identical traces and fingerprints.

#![deny(missing_docs)]

pub mod crash;
pub mod file;
pub mod shelf;
pub mod tamper;
pub mod wal;

pub use crash::CrashPoint;
pub use file::{FileShelves, Recovery};
pub use shelf::{Holder, Holders, ItemState, MemShelves, ShelfError, ShelfView, Shelves};
pub use tamper::{ScratchPath, TamperFile};
pub use wal::{scan, Scan, WalError, WalRecord};
