//! # dh-fault — the Overlapping Distance Halving DHT (Section 6)
//!
//! Same continuous graph as the plain DHT, different discretisation:
//! segments **overlap**. Server `V_i` covers `s(V_i) = [x_i, y_i]`
//! with `|s(V_i)| = Θ(log n / n)`, derived purely locally — `log n` is
//! estimated from the distance to the ring predecessor (Lemma 6.2) —
//! so every point of `I` is covered by `Θ(log n)` servers and every
//! data item is stored `Θ(log n)` times.
//!
//! * **Simple Lookup** (Theorem 6.3): emulate the canonical backward
//!   path of Claim 2.4, forwarding each hop to *one random live* cover
//!   of the next point. `log n + O(1)` hops; survives random fail-stop
//!   of a constant fraction of servers (Theorem 6.4).
//! * **Majority Lookup** (Theorem 6.6): forward each hop to **all**
//!   `Θ(log n)` covers; a server accepts a value only when a majority
//!   of the previous covering set vouches for it. Correct retrieval
//!   under random *false message injection* with `O(log n)` time and
//!   `O(log³ n)` messages.
//!
//! Both theorems hold "for sufficiently small p", and at a finite `n`
//! that regime is computable. All covers of one path point hear the
//! same senders, so a lookup goes wrong exactly when one of its
//! `T ≤ log n + O(1)` covering sets is bad: all `c` covers dead
//! (probability `p^c`) for Simple Lookup, no honest majority
//! (`P(Bin(c, p) ≥ c/2)`) for Majority Lookup. The failure share is
//! therefore at most `T·p^c`, resp. `T·P(Bin(c, p) ≥ c/2)`, which
//! vanishes polynomially in `n` once `c = Θ(log n)` and `p` is small —
//! the theorems — and says what to expect when it is not. At
//! n = 4096 the coverage is 13 on average and 10 at worst: Simple
//! Lookup is within a 1 % failure bound up to `p = 0.4`, Majority
//! Lookup up to `p ≈ 0.09` (1.5 % at 0.1, 29 % at 0.2; at 0.3 the bound
//! is vacuous and half the lookups are in fact wrong). `e_paper`
//! (E20, E21) asserts the bound at every swept `p` and zero failures
//! inside the 1 % regime.
//!
//! §6.2's erasure-coded storage (covers hold Reed-Solomon shares, any
//! `k`-of-`m` of which reconstruct the item) lives in `dh_replica`.
//!
//! Since the protocol-API redesign, the two failure models themselves
//! ([`FaultModel`]) live in `dh_proto` and are implemented as
//! *transport behaviors* (`dh_proto::ChaosNet` drops a fail-stopped
//! server's traffic or corrupts a liar's payloads under any inner
//! transport), so the plain Distance Halving DHT can be driven under
//! both adversaries through the same event engine. What remains here
//! is what genuinely is not a transport: the §6 *overlapping
//! discretisation* — a different topology with Θ(log n)-fold coverage
//! — and its Simple/Majority lookups.

#![deny(missing_docs)]

pub mod net;
pub mod lookup;

pub use net::{FaultModel, OverlapNet, OverlapNodeId};
