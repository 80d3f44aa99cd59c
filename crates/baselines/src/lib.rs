//! # p2p-baselines — the Table 1 comparison schemes
//!
//! Faithful single-process reimplementations of the lookup schemes the
//! paper compares against (Table 1), each exposing the same
//! measurement interface ([`LookupScheme`]) so `e_paper`'s Table 1
//! experiment can check **path length**, **congestion** and
//! **linkage** of all of them against their row's order:
//!
//! | scheme | paper row | path | congestion | linkage |
//! |---|---|---|---|---|
//! | [`chord::Chord`] | Chord \[45\] | log n | (log n)/n | log n |
//! | [`plaxton::Plaxton`] | Tapestry \[48\] | log n | (log n)/n | log n |
//! | [`can::Can`] | CAN \[41\] | d·n^(1/d) | d·n^(1/d−1) | d |
//! | [`kleinberg::SmallWorld`] | Small Worlds \[22\] | log² n | (log² n)/n | O(1) |
//! | [`viceroy::Viceroy`] | Viceroy \[29\] | log n | (log n)/n | O(1) |
//! | `dh-dht` (∆ = 2 … √n) | Distance Halving | log_∆ n | (log_∆ n)/n | O(∆) |
//!
//! [`koorde::Koorde`] (direct De Bruijn emulation, Kaashoek-Karger) is
//! included for the ablation the paper draws against \[12\]\[18\]: direct
//! emulations have constant *average* degree but `O(log n)` *maximum*
//! in-degree, where the continuous-discrete construction keeps the
//! maximum constant (given smoothness).

#![deny(missing_docs)]

pub mod can;
pub mod chord;
pub mod kleinberg;
pub mod koorde;
pub mod plaxton;
pub mod scheme;
pub mod viceroy;

pub use scheme::{measure, LookupScheme, SchemeReport};
