//! The paper as an executable oracle: every bound the paper states,
//! declared once with its constant written out, measured, and checked.
//!
//! A [`Claim`] is one theorem: id, text, direction and the bound's
//! formula. An experiment is a plain `fn(&mut Table, &Params)` that
//! measures and pushes `(claim, sweep point, measured, bound value)`.
//! A claim measured at many points is decided by its *tightest* one
//! (smallest relative clearance), and every failing point is named.
//! Θ-shape claims ("flat in n", "falls with ∆") are ordinary bounds on
//! the [`spread`] (max ÷ min) or [`growth`] (last ÷ first) of the
//! normalised column. `e_paper` prints [`Table::to_markdown`] and exits
//! 1 on [`Table::failures`]; `tests/paper.rs` runs the same functions
//! at the two smallest sizes.
//!
//! **Constant policy.** A bound the paper states with its constant
//! carries that constant plus any *documented* implementation term
//! (e.g. the ring hop `dh_dht::lookup` adds for fixed-point
//! truncation); the claim text says which is which. A Θ/O/Ω bound
//! carries a round constant at least 25 % clear of the worst swept
//! point. The rand shim's stream is not upstream's, so a threshold is
//! never tuned closer than that to one stream's draw. A constant is
//! never loosened to make a row pass: a row that contradicts the paper
//! is fixed where it is wrong, or the bound is re-derived and the
//! derivation goes in the claim text and the crate's docs.

use crate::slo::{K, M};
use crate::{random_points, MASTER_SEED, SIZES};
use bytes::Bytes;
use cd_core::graph::{ChordLike, ContinuousGraph, DeBruijn, DistanceHalving};
use cd_core::hashing::KWiseHash;
use cd_core::interval::{Interval, FULL};
use cd_core::point::Point;
use cd_core::pointset::PointSet;
use cd_core::rng::seeded;
use cd_core::stats::Summary;
use cd_emulation::{Emulation, GraphFamily};
use cd_expander::spectral::analyze;
use cd_expander::{smoothness2_check, GgExpander, TwoDMultipleChoice};
use dh_balance::bucket::{BucketConfig, BucketRing};
use dh_balance::churn::churn_trajectory;
use dh_balance::ring::Ring;
use dh_balance::IdStrategy;
use dh_caching::CachedDht;
use dh_dht::analysis::{check_debruijn_isomorphism, graph_stats};
use dh_dht::driver::{
    permutation_routing, random_lookups, random_permutation, reversal_permutation,
};
use dh_dht::{join_over, leave_over, CdNetwork, DhNetwork, LookupKind, NodeId};
use dh_fault::{FaultModel, OverlapNet, OverlapNodeId};
use dh_obs::Obs;
use dh_proto::engine::{Engine, RetryPolicy};
use dh_proto::transport::{Delivery, Inline, Transport};
use dh_proto::wire::{Envelope, Wire};
use dh_replica::{ReplicatedDht, Shelves};
use p2p_baselines::can::Can;
use p2p_baselines::chord::Chord;
use p2p_baselines::kleinberg::SmallWorld;
use p2p_baselines::koorde::Koorde;
use p2p_baselines::plaxton::Plaxton;
use p2p_baselines::viceroy::Viceroy;
use p2p_baselines::{measure, LookupScheme};
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which side of its bound a measurement must stay on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    /// measured ≤ bound
    Le,
    /// measured ≥ bound
    Ge,
    /// measured = bound, exactly (an accounting identity)
    Eq,
}

impl Cmp {
    fn symbol(self) -> &'static str {
        match self {
            Cmp::Le => "≤",
            Cmp::Ge => "≥",
            Cmp::Eq => "=",
        }
    }
}

/// One bound of the paper.
#[derive(Debug)]
pub struct Claim {
    /// Experiment id (`E1`…`E23`, `A1`, `A2`, `R1`…`R5`, `T1`) plus a
    /// letter when one theorem states several bounds.
    pub id: &'static str,
    /// The theorem and the quantity it bounds.
    pub text: &'static str,
    /// The direction of the bound.
    pub cmp: Cmp,
    /// The bound's formula, constant written out.
    pub bound: &'static str,
}

struct Measured {
    claim: &'static Claim,
    at: String,
    measured: f64,
    bound: f64,
}

impl Measured {
    /// Relative clearance from the bound: `≥ 0` iff the point meets it
    /// (NaN never does); the smallest over a claim's points is the
    /// tightest.
    fn margin(&self) -> f64 {
        let gap = match self.claim.cmp {
            Cmp::Le => self.bound - self.measured,
            Cmp::Ge => self.measured - self.bound,
            Cmp::Eq => -(self.measured - self.bound).abs(),
        };
        gap / self.bound.abs().max(self.measured.abs()).max(f64::MIN_POSITIVE)
    }

    fn passes(&self) -> bool {
        self.margin() >= 0.0
    }

    /// `formula = value`, or just the constant when that is the formula.
    fn bound_text(&self) -> String {
        match self.claim.bound.parse::<f64>() {
            Ok(_) => self.claim.bound.to_string(),
            Err(_) => format!("{} = {}", self.claim.bound, num(self.bound)),
        }
    }
}

/// Counts print whole, small shares in scientific notation.
fn num(x: f64) -> String {
    match x {
        x if x == x.trunc() && x.abs() < 1e15 => format!("{x:.0}"),
        x if x.abs() < 0.01 => format!("{x:.2e}"),
        x => format!("{x:.3}"),
    }
}

/// The conformance table: every measured point of every claim.
#[derive(Default)]
pub struct Table {
    points: Vec<Measured>,
}

impl Table {
    /// Record that `claim`, at sweep point `at`, measured `measured`
    /// against a bound that evaluates to `bound` there.
    pub fn push(&mut self, claim: &'static Claim, at: impl ToString, measured: f64, bound: f64) {
        self.points.push(Measured { claim, at: at.to_string(), measured, bound });
    }

    /// [`Self::push`] for a claim whose bound is a plain constant: the
    /// number asserted is the one the claim declares and prints.
    pub fn check(&mut self, claim: &'static Claim, at: impl ToString, measured: f64) {
        let bound = claim.bound.parse().expect("a constant bound is written as a number");
        self.push(claim, at, measured, bound);
    }

    /// Claim ids in first-push order, one per claim.
    pub fn ids(&self) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = Vec::new();
        for p in &self.points {
            if !ids.contains(&p.claim.id) {
                ids.push(p.claim.id);
            }
        }
        ids
    }

    /// The point that decides `id`: the one with the least clearance.
    fn tightest(&self, id: &str) -> &Measured {
        self.points
            .iter()
            .filter(|p| p.claim.id == id)
            .min_by(|a, b| a.margin().total_cmp(&b.margin()))
            .expect("ids() only lists claims with a point")
    }

    /// One line per failing point: `id at point: measured vs bound`.
    pub fn failures(&self) -> Vec<String> {
        self.points
            .iter()
            .filter(|p| !p.passes())
            .map(|p| {
                let (c, m) = (p.claim, num(p.measured));
                format!("{} at {}: {m} is not {} {}", c.id, p.at, c.cmp.symbol(), p.bound_text())
            })
            .collect()
    }

    /// One Markdown row per claim: its tightest point decides `pass`.
    pub fn to_markdown(&self) -> String {
        let mut t = cd_core::stats::Table::new([
            "id", "claim", "tightest point", "measured", "", "bound", "pass",
        ]);
        for id in self.ids() {
            let p = self.tightest(id);
            let n = self.points.iter().filter(|q| q.claim.id == id).count();
            t.row([
                id.to_string(),
                p.claim.text.to_string(),
                format!("{} (of {n})", p.at),
                num(p.measured),
                p.claim.cmp.symbol().to_string(),
                p.bound_text(),
                if p.passes() { "ok" } else { "FAIL" }.to_string(),
            ]);
        }
        let (ids, mut out) = (self.ids(), t.to_markdown());
        let held = ids.iter().filter(|id| self.tightest(id).passes()).count();
        let _ = writeln!(out, "\n{held} of {} claims hold over {} points", ids.len(), self.points.len());
        out
    }
}

/// `max ÷ min` of a normalised column: a Θ(f) claim says it stays
/// under a constant however far the sweep goes.
pub fn spread(column: &[f64]) -> f64 {
    let max = column.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    max / column.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `last ÷ first` of a column along its sweep.
pub fn growth(column: &[f64]) -> f64 {
    column[column.len() - 1] / column[0]
}

/// What a run sweeps. Every experiment derives its own sizes from
/// these two, so that [`PAPER`] reproduces the parameters the
/// experiments have always run at and a test can shrink all of them.
pub struct Params {
    /// The `n` sweep of the experiments that check a shape.
    pub sizes: &'static [usize],
    /// The network size of the experiments that sweep something else
    /// (∆, q, p, the guest family, …).
    pub n: usize,
}

/// The parameters `e_paper` runs at.
pub const PAPER: Params = Params { sizes: &SIZES, n: 4096 };

macro_rules! claims {
    ($($id:ident $cmp:ident $text:literal => $bound:literal;)*) => {
        $(const $id: Claim =
            Claim { id: stringify!($id), text: $text, cmp: Cmp::$cmp, bound: $bound };)*
        /// Every claim, in the paper's order.
        pub const ALL: &[&Claim] = &[$(&$id),*];
    };
}

claims! {
    E1   Le "Thm 2.1: edges of G_x without the ring edges, any x" => "3n − 1";
    E2A  Le "Thm 2.2: max out-degree" => "ρ + 4";
    E2B  Le "Thm 2.2: max in-degree" => "⌈2ρ⌉ + 1";
    A2A  Le "§1.1 ablation: DH max in-degree on smooth ids is Θ(ρ), flat in n (spread over the n sweep)" => "1.25";
    A2B  Ge "§1.1 ablation: a direct De Bruijn emulation (Koorde) has max in-degree Ω(log n)" => "0.8·log₂ n";
    E3A  Le "§2.1: r ∈ 2..log₂ n − 2 for which G_x with x_i = i/2^r is not the r-dimensional De Bruijn graph" => "0";
    E3B  Le "§2.1: edges the isomorphism collapses, 2n − |E| (the self-loops at 0…0 and 1…1)" => "2";
    E4   Le "Cor 2.5: Fast Lookup max path; +1 is the paper's, +1 the ring hop dh_dht::lookup adds for fixed-point truncation" => "log₂ n + log₂ ρ + 1 + 1";
    E6A  Le "Thm 2.8: DH Lookup max path; +3 = one rounded-up step per phase + the phase-boundary hop to the neighbour covering q_t" => "2(log₂ n + log₂ ρ) + 3";
    E6B  Le "Thm 2.8 vs Cor 2.5: DH Lookup mean path ÷ Fast Lookup mean path is O(1) (≈ 2: two phases)" => "2.5";
    E5A  Le "Thm 2.7: Fast Lookup congestion ÷ (log₂ n / n), smooth ids, m = 16n" => "2";
    E5B  Le "Thm 2.7: … is Θ(log n / n): spread of that column over the n sweep" => "1.5";
    E5C  Le "Thm 2.9: DH Lookup congestion ÷ (log₂ n / n), smooth ids, m = 16n" => "3";
    E5D  Le "Thm 2.9: … is Θ(log n / n): spread of that column over the n sweep" => "1.5";
    E7   Le "Thm 2.10/2.11: DH Lookup max load under permutation routing, every permutation (random, reversal, bit reversal)" => "5·log₂ n";
    A1A  Ge "A1 ablation: Fast Lookup (no random phase) max load on the bit-reversal permutation — all √n sources sharing a low half meet at one server" => "√n / 2";
    A1B  Ge "A1 ablation: Fast ÷ DH max load on bit reversal grows like √n / log n: its growth along the n sweep" => "1.25";
    A1C  Le "A1 ablation: only a digit adversary separates them — Fast Lookup max load on random and reversal η" => "4·log₂ n";
    E8A  Le "Thm 2.13: DH Lookup mean path ÷ log_∆ n over ∆ ∈ {2,4,8,16,64}" => "2.5";
    E8B  Le "Thm 2.13: dilation is Θ(log_∆ n): spread of that column over the ∆ sweep" => "1.6";
    E8C  Le "§2.3: max degree ÷ ∆ on random ids" => "25";
    E8D  Le "§2.3: congestion·n ÷ log_∆ n" => "25";
    E8E  Le "§2.3: congestion falls with ∆: congestion(∆ = 64) ÷ congestion(∆ = 2)" => "0.5";
    E9   Le "Obs 3.1: active tree nodes after the epoch's collapse" => "4q/c";
    E10  Le "Lemma 3.3: active tree depth" => "log₂(q/c) + 4";
    E11A Le "Thm 3.6: max supplies of one server: ≤ c per active tree node it covers (≤ 1 + 2q·|s|/c per level…) plus the q·|s| requests entering at it" => "c·(log₂(q/c) + 1) + 3·q·max|s|";
    E11B Le "Thm 3.6 (no added latency): p99 hops of a served request vs the plain DH Lookup bound (E6A)" => "2(log₂ n + log₂ ρ) + 3";
    E12A Le "Thm 3.8(i): max items cached by one server, Σq = n, c = log n" => "log₂ n";
    E12B Le "Thm 3.8(ii): max supplies of one server" => "log₂² n";
    E12C Le "Thm 3.8(ii): max messages handled by one server" => "1.5·log₂² n";
    E13A Le "Lemma 4.1: Single Choice max segment · n is Θ(log n), upper side" => "1.5·ln n";
    E13B Ge "Lemma 4.1: Single Choice max segment · n is Θ(log n), lower side" => "0.5·ln n";
    E13C Le "Lemma 4.1: Single Choice min segment · n is O(1/n)" => "8/n";
    E14A Ge "Lemma 4.2: Improved Single Choice min segment · n is Ω(1/log n)" => "0.75 / log₂ n";
    E14B Le "Lemma 4.2: Improved Single Choice max segment · n is O(log n)" => "0.75·log₂ n";
    E13D Ge "Lemma 4.3: Multiple Choice (t = 3) min segment · n" => "1/4";
    E13E Le "Lemma 4.3: Multiple Choice (t = 3) max segment · n is O(1)" => "2.5";
    E15A Le "Thm 4.4: max segment · n_total after n Multiple Choice inserts into an adversarial start (n/16 ids in a 2⁻¹⁰ sliver)" => "3";
    E15B Le "Thm 4.4: … regardless of the start: ÷ the same quantity before the inserts" => "0.05";
    E16A Ge "§4.1: naive Single Choice under churn loses smoothness: ρ after 5n join/leave ops" => "n";
    E16B Le "§4.1: the bucket scheme keeps ρ = O(1) mid-churn and at the end" => "25";
    E16C Le "§4.1: bucket scheme ids moved per op, amortised O(log n)" => "1.5·log₂ n";
    E16D Le "§4.1: Multiple Choice join-time repair keeps max segment · n = O(1) under churn" => "4";
    E17A Ge "Cor 5.2: certified conductance (Cheeger, gap/2) of the GG discretisation vs what vertex expansion (2−√3)/(2ρ) implies: each boundary cell costs ≥ 1 cut edge, each cell ≤ d_max volume" => "(2−√3) / (2·ρ·d_max)";
    E17B Le "Cor 5.2: max Gabber–Galil degree ÷ area smoothness ρ is O(1) on 2D Multiple Choice cells" => "8";
    E17C Le "Cheeger sandwich the verifier relies on: gap/2 ÷ sweep-cut conductance" => "1";
    E18A Le "Lemma 5.3: 2D Multiple Choice leaves empty big + crowded small rectangles (smoothness ≤ 2)" => "0";
    E18B Ge "Lemma 5.3: uniform sampling does not: its empty big + crowded small rectangles" => "1";
    E19A Le "Thm 6.3: Simple Lookup max path" => "log₂ n + 4";
    E19B Le "§6.2 Property II: max degree of the overlapping net is Θ(log n)" => "20·log₂ n";
    E19C Ge "§6.2: min coverage of a point is Θ(log n), lower side" => "0.5·log₂ n";
    E19D Le "§6.2: mean coverage of a point is Θ(log n), upper side" => "1.5·log₂ n";
    E20A Le "Thm 6.4 (proof form): a Simple Lookup fails only if one of its ≤ log₂ n path points lost all c_min covers: failed share" => "log₂ n · p^c_min";
    E20B Le "Thm 6.4 in its regime (‘sufficiently small p’: that bound ≤ 1 %): failed lookups of 500" => "0";
    E21A Le "Thm 6.6 (proof form): a Majority Lookup errs only if one of its T covering sets lacks an honest majority: wrong share" => "T · P(Bin(c_min, p) ≥ c_min/2)";
    E21B Le "Thm 6.6 in its regime (that bound ≤ 1 %): wrong lookups of 200" => "0";
    E21C Le "Thm 6.6: mean messages of a Majority Lookup are O(log³ n)" => "1.5·log₂³ n";
    E21D Le "Thm 6.6: mean parallel time" => "log₂ n + 4";
    R1   Le "§6.2 (any k of m reconstruct): clique messages of a quorum get on a healthy store, total − route hops: a fetch and a reply per share beyond the coordinator's own" => "2(k − 1)";
    R2   Le "§6.2: clique messages of a put: a store per cover beyond the coordinator, an ack from k − 1 of them" => "(m − 1) + (k − 1)";
    R3   Le "§6.2: wire bytes of a quorum get of a len = 16 KiB value: only k − 1 shares of len/k travel; the two implementation terms are ≤ 80 B around each (fetch 30 + reply header 35 + seal 8 + padding) and ≤ 64 B per LookupStep of a route no longer than Thm 2.8's" => "(k − 1)(len/k + 80) + 64·(2 log₂ n + 3)";
    R4A  Le "§6.2 with placement as a set (any k distinct shares reconstruct): shares placed per churn event ÷ items it shifted — c = 1, one share per shifted item" => "1";
    R4B  Le "… joins and graceful leaves (§2.1's hand-off) ship the share of the member that left each clique to the one that entered it: RepairPull/RepairPullBatch frames they send" => "0";
    R4C  Ge "… a crash (drop_shelves_of, then leave_over) leaves no share to hand off: shares rebuilt (not handed off) by crashes ÷ items they shifted" => "1";
    R5   Eq "§6.2 stored bytes: shelved ÷ user bytes of a len-byte value = the m/k floor plus two 8-byte implementation terms, the length trailer in the k shards and the sealed header on each of m shares (the systematic code stores what the non-systematic one did)" => "m·(⌈(len + 8)/k⌉ + 8)/len";
    E22A Le "Thm 7.1: max guests per host g; the paper's ρ + 1 is the case 2^k = n" => "ρ·2^k/n + 1";
    E22B Le "Thm 7.1: max guest edges per host edge; the paper's ρ² counts ρ guests per host where the mapping gives g" => "g²";
    E22C Le "Thm 7.1: max host degree, likewise" => "g·d";
    E23A Le "§2.1: a join's lookup is a Fast Lookup (LookupKind::for_join; E4's bound at the n and ρ it joins): hops of 200 joins" => "log₂ n + log₂ ρ + 1 + 1";
    E23B Le "§2.1: servers changing state per join, mean" => "20";
    E23C Le "§2.1: … is O(ρ + ∆), flat in n: spread of the mean over the n sweep" => "1.5";
    E23D Eq "§2.1: a join sends a JoinSplit or NeighborDiff per server whose table changed (split node, joiner; every live table diffed): msgs of 32 joins" => "tables changed";
    E23E Eq "§2.1: a graceful leave sends a LeaveMerge plus a NeighborDiff per server whose table changed: msgs of 32 leaves" => "leaves + tables changed";
    E23F Le "§2.1 + Cor 2.5: a join's member messages (lookup hops, JoinSplit, diffs) on a Multiple Choice network (ρ = O(1)): E4's Fast Lookup bound + one per table changed + 2" => "log₂ n + log₂ ρ + 2 + changed + 2";
    E23G Le "§2.1 + Thm 2.2: a graceful leave's distinct NeighborDiff receivers, same network: the watchers of the leaver and of its predecessor, each ≤ in-degree (E2B) + out-degree (E2A) + 2 ring links" => "2(⌈2ρ⌉ + 1 + ρ + 4 + 2)";
    T1A  Le "Table 1, path length: mean path ÷ the row's order (Chord, Tapestry, Viceroy log₂ n; CAN d·n^(1/d); Small Worlds log₂² n; DH log_∆ n)" => "c_path (TABLE1)";
    T1B  Le "Table 1, congestion: max load/m ÷ (the row's path order / n)" => "c_cong (TABLE1)";
    T1C  Le "Table 1, linkage: max degree ÷ the row's order (log₂ n, log₂ n, d, 1, 1, ∆); for DH the mean degree, ≤ 2∆ + 4 by Thm 2.1's edge count plus the ring, its max being E8C's" => "c_link (TABLE1)";
}

fn lg(n: usize) -> f64 {
    (n as f64).log2()
}

fn at_n(n: usize) -> String {
    format!("n = {n}")
}

fn sweep(sizes: &[usize]) -> String {
    format!("n = {}…{}", sizes[0], sizes[sizes.len() - 1])
}

/// Segment length as a multiple of the even share `1/n`.
fn times_n(len: u128, n: usize) -> f64 {
    len as f64 / FULL as f64 * n as f64
}

/// Cor 2.5's bound with the ring hop E4 names.
fn fast_path_bound(n: usize, rho: f64) -> f64 {
    lg(n) + rho.log2().max(0.0) + 2.0
}

/// Thm 2.8's bound with the two implementation terms E6A names.
fn dh_path_bound(n: usize, rho: f64) -> f64 {
    2.0 * (lg(n) + rho.log2().max(0.0)) + 3.0
}

fn degree(t: &mut Table, p: &Params) {
    for &n in p.sizes {
        let s = graph_stats(&random_points(n, 1), 2);
        t.push(&E1, at_n(n), s.undirected_edges as f64, (3 * n - 1) as f64);
    }
    let n = p.n;
    for (at, ps) in [
        (format!("evenly spaced, n = {n}"), PointSet::evenly_spaced(n)),
        (format!("random, n = {n}"), random_points(n, 2)),
        (format!("random, n = {}", n / 4), random_points(n / 4, 3)),
    ] {
        let s = graph_stats(&ps, 2);
        t.push(&E2A, &at, s.max_out_degree as f64, s.smoothness + 4.0);
        t.push(&E2B, &at, s.max_in_degree as f64, (2.0 * s.smoothness).ceil() + 1.0);
    }
    let mut dh = Vec::new();
    for &n in p.sizes {
        dh.push(graph_stats(&PointSet::evenly_spaced(n), 2).max_in_degree as f64);
        let koorde = Koorde::new(n, &mut seeded(MASTER_SEED ^ n as u64));
        let kmax = koorde.in_degrees().into_iter().max().expect("nonempty");
        t.push(&A2B, at_n(n), kmax as f64, 0.8 * lg(n));
    }
    t.check(&A2A, sweep(p.sizes), spread(&dh));
}

fn debruijn(t: &mut Table, p: &Params) {
    let rs = 2..=lg(p.n) as u32 - 2;
    let broken = rs.clone().filter(|&r| check_debruijn_isomorphism(r).is_err()).count();
    t.check(&E3A, format!("r = {rs:?}"), broken as f64);
    for r in rs {
        let n = 1usize << r;
        let edges = graph_stats(&PointSet::evenly_spaced(n), 2).undirected_edges;
        t.check(&E3B, format!("r = {r}"), 2.0 * n as f64 - edges as f64);
    }
}

fn lookup(t: &mut Table, p: &Params) {
    for &n in p.sizes {
        for (ids, ps) in [("random", random_points(n, 4)), ("smooth", PointSet::evenly_spaced(n))] {
            let at = format!("{ids} ids, n = {n}");
            let rho = ps.smoothness();
            let net = DhNetwork::new(&ps);
            let seed = MASTER_SEED ^ n as u64;
            let fast = random_lookups(&net, LookupKind::Fast, 4 * n, seed).path_lengths;
            let dh = random_lookups(&net, LookupKind::DistanceHalving, 4 * n, seed).path_lengths;
            t.push(&E4, &at, fast.max, fast_path_bound(n, rho));
            t.push(&E6A, &at, dh.max, dh_path_bound(n, rho));
            t.check(&E6B, &at, dh.mean / fast.mean);
        }
    }
}

fn congestion(t: &mut Table, p: &Params) {
    for (kind, level_claim, flat_claim) in [
        (LookupKind::Fast, &E5A, &E5B),
        (LookupKind::DistanceHalving, &E5C, &E5D),
    ] {
        let mut column = Vec::new();
        for &n in p.sizes {
            let net = DhNetwork::new(&PointSet::evenly_spaced(n));
            let m = 16 * n;
            let r = random_lookups(&net, kind, m, MASTER_SEED ^ 0xC0 ^ n as u64);
            column.push(r.max_load as f64 / m as f64 / (lg(n) / n as f64));
            t.check(level_claim, at_n(n), column[column.len() - 1]);
        }
        t.check(flat_claim, sweep(p.sizes), spread(&column));
    }
}

/// Rank `i` targets the rank whose `log₂ n` bits are `i`'s reversed —
/// the textbook adversary of digit routing: a Fast Lookup's message
/// sits, half way, on the point spelled by the low half of its source
/// and the high half of its target, and bit reversal makes those the
/// same `log₂ n / 2` bits for `√n` sources at once. (`n` a power of
/// two; ranks are positions on the ring.)
fn bit_reversal_permutation(net: &DhNetwork) -> Vec<NodeId> {
    let mut by_point: Vec<NodeId> = net.live().to_vec();
    by_point.sort_by_key(|&id| net.node(id).x);
    let bits = by_point.len().trailing_zeros();
    let target: BTreeMap<NodeId, NodeId> = (0..by_point.len())
        .map(|rank| (by_point[rank], by_point[rank.reverse_bits() >> (usize::BITS - bits)]))
        .collect();
    net.live().iter().map(|id| target[id]).collect()
}

fn permutation(t: &mut Table, p: &Params) {
    let mut fast_over_dh = Vec::new();
    for &n in p.sizes {
        let net = DhNetwork::new(&PointSet::evenly_spaced(n));
        let mut rng = seeded(MASTER_SEED ^ 0xE7 ^ n as u64);
        for (name, digit_adversary, perm) in [
            ("random η", false, random_permutation(&net, &mut rng)),
            ("reversal η", false, reversal_permutation(&net)),
            ("bit-reversal η", true, bit_reversal_permutation(&net)),
        ] {
            let dh = permutation_routing(&net, LookupKind::DistanceHalving, &perm, 11 + n as u64);
            t.push(&E7, format!("{name}, n = {n}"), dh.max_load as f64, 5.0 * lg(n));
            let fast = permutation_routing(&net, LookupKind::Fast, &perm, 13 + n as u64);
            if digit_adversary {
                t.push(&A1A, at_n(n), fast.max_load as f64, (n as f64).sqrt() / 2.0);
                fast_over_dh.push(fast.max_load as f64 / dh.max_load as f64);
            } else {
                t.push(&A1C, format!("{name}, n = {n}"), fast.max_load as f64, 4.0 * lg(n));
            }
        }
    }
    t.check(&A1B, sweep(p.sizes), growth(&fast_over_dh));
}

fn tradeoff(t: &mut Table, p: &Params) {
    let n = p.n;
    let (mut dilation, mut cong) = (Vec::new(), Vec::new());
    for delta in [2u32, 4, 8, 16, 64] {
        let at = format!("∆ = {delta}");
        let net = DhNetwork::with_delta(&random_points(n, 8), delta);
        let m = 8 * n;
        let r = random_lookups(&net, LookupKind::DistanceHalving, m, MASTER_SEED ^ delta as u64);
        let log_d_n = (n as f64).ln() / (delta as f64).ln();
        dilation.push(r.path_lengths.mean / log_d_n);
        cong.push(r.max_load as f64 / m as f64 * n as f64);
        t.check(&E8A, &at, dilation[dilation.len() - 1]);
        t.check(&E8C, &at, net.degree_stats().0 as f64 / delta as f64);
        t.check(&E8D, &at, cong[cong.len() - 1] / log_d_n);
    }
    t.check(&E8B, "∆ = 2…64", spread(&dilation));
    t.check(&E8E, "∆ = 2…64", growth(&cong));
}

fn hotspot(t: &mut Table, p: &Params) {
    let n = p.n;
    let c = lg(n) as u64;
    for q in [n / 16, n / 4, n, 4 * n] {
        let at = format!("q = {q}, c = {c}");
        let mut rng = seeded(MASTER_SEED ^ q as u64);
        let ps = random_points(n, 9);
        let (rho, max_seg) = (ps.smoothness(), ps.min_max_segment().1 as f64 / FULL as f64);
        let mut cache = CachedDht::new(DhNetwork::new(&ps), KWiseHash::new(16, &mut rng), c);
        let hops: Vec<u64> = (0..q)
            .map(|_| {
                let from = cache.net.random_node(&mut rng);
                cache.request(from, 7, &mut rng).hops as u64
            })
            .collect();
        let depth = cache.tree(7).expect("requested").depth();
        let supplies = cache.supplies().into_iter().map(|(_, s)| s).max().expect("nonempty");
        let (qf, cf) = (q as f64, c as f64);
        let levels = (qf / cf).log2();
        t.push(&E9, &at, cache.end_epoch().active_nodes as f64, 4.0 * qf / cf);
        t.push(&E10, &at, f64::from(depth), levels + 4.0);
        t.push(&E11A, &at, supplies as f64, cf * (levels + 1.0) + 3.0 * qf * max_seg);
        t.push(&E11B, &at, Summary::of_u64(hops).p99, dh_path_bound(n, rho));
    }
}

/// A demand vector with Σq = n: Zipf-ish head plus a singleton tail.
fn demands(n: usize) -> Vec<(u64, usize)> {
    let mut out = Vec::new();
    let (mut remaining, mut q) = (n, n / 4);
    while q >= 8 && remaining > n / 4 {
        out.push((out.len() as u64, q.min(remaining)));
        remaining -= q.min(remaining);
        q /= 2;
    }
    let hot = out.len();
    out.extend((0..remaining).map(|i| ((hot + i) as u64, 1)));
    out
}

fn multihotspot(t: &mut Table, p: &Params) {
    for &n in &p.sizes[1..] {
        let mut rng = seeded(MASTER_SEED ^ 0xE12 ^ n as u64);
        let net = DhNetwork::new(&random_points(n, 12));
        let hash = KWiseHash::new(lg(n) as usize + 1, &mut rng);
        let mut cache = CachedDht::new(net, hash, lg(n) as u64);
        for (item, q) in demands(n) {
            for _ in 0..q {
                let from = cache.net.random_node(&mut rng);
                cache.request(from, item, &mut rng);
            }
        }
        let max = |per_server: Vec<(NodeId, u64)>| {
            per_server.into_iter().map(|(_, v)| v).max().expect("nonempty")
        };
        let cached = cache.cache_sizes().values().copied().max().unwrap_or(0);
        t.push(&E12A, at_n(n), cached as f64, lg(n));
        t.push(&E12B, at_n(n), max(cache.supplies()) as f64, lg(n).powi(2));
        t.push(&E12C, at_n(n), max(cache.messages()) as f64, 1.5 * lg(n).powi(2));
    }
}

fn balance(t: &mut Table, p: &Params) {
    for &n in &p.sizes[p.sizes.len() - 2..] {
        let band = |label: &str, strat: IdStrategy| {
            let mut rng = seeded(MASTER_SEED ^ n as u64 ^ label.len() as u64);
            let (min, max) = strat.build_ring(n, &mut rng).min_max_segment();
            (times_n(min, n), times_n(max, n))
        };
        let ln_n = (n as f64).ln();
        let (min, max) = band("Single Choice", IdStrategy::SingleChoice);
        t.push(&E13A, at_n(n), max, 1.5 * ln_n);
        t.push(&E13B, at_n(n), max, 0.5 * ln_n);
        t.push(&E13C, at_n(n), min, 8.0 / n as f64);
        let (min, max) = band("Improved Single", IdStrategy::ImprovedSingleChoice);
        t.push(&E14A, at_n(n), min, 0.75 / lg(n));
        t.push(&E14B, at_n(n), max, 0.75 * lg(n));
        let (min, max) = band("Multiple Choice t=3", IdStrategy::MultipleChoice { t: 3 });
        t.push(&E13D, at_n(n), min, 0.25);
        t.check(&E13E, at_n(n), max);
    }
    // Thm 4.4: m ids crammed into a 2⁻¹⁰ sliver, then n Multiple
    // Choice inserts
    let (n, m) = (p.n, p.n / 16);
    let mut rng = seeded(MASTER_SEED ^ 0x44);
    let mut ring = Ring::new();
    for i in 0..m as u64 {
        ring.insert(Point::from_ratio(i + 1, (m as u64 + 2) << 10));
    }
    let before = times_n(ring.min_max_segment().1, ring.len());
    let strat = IdStrategy::MultipleChoice { t: 4 };
    while ring.len() < m + n {
        let id = strat.choose(&ring, &mut rng);
        ring.insert(id);
    }
    let after = times_n(ring.min_max_segment().1, ring.len());
    let at = format!("{m} crammed + {n} inserts");
    t.check(&E15A, &at, after);
    t.check(&E15B, &at, after / before);
}

fn churn(t: &mut Table, p: &Params) {
    let n = p.n / 2;
    let ops = 20_000 * p.n / 4096;
    let at = format!("n = {n}, {ops} ops");
    let at_the_end = |label: &str, strat: IdStrategy| {
        let mut rng = seeded(MASTER_SEED ^ 0x16 ^ label.len() as u64);
        *churn_trajectory(strat, n, ops, ops / 2, &mut rng).last().expect("samples")
    };
    let naive = at_the_end("Single Choice (naive)", IdStrategy::SingleChoice);
    t.push(&E16A, &at, naive.rho, n as f64);
    let repaired =
        at_the_end("Multiple Choice (join-time repair)", IdStrategy::MultipleChoice { t: 3 });
    t.check(&E16D, &at, repaired.max_times_n);
    let mut rng = seeded(MASTER_SEED ^ 0x17);
    let initial: Vec<Point> = (0..n).map(|_| Point(rng.gen())).collect();
    let mut ring = BucketRing::new(&initial, BucketConfig::default());
    let mut moved = 0usize;
    for i in 0..ops {
        if rng.gen_bool(0.5) && ring.len() > n / 2 {
            ring.leave_random(&mut rng);
        } else {
            ring.join(&mut rng);
        }
        moved += ring.last_moved;
        if i == ops / 2 {
            t.check(&E16B, format!("{at}, mid-churn"), ring.smoothness());
        }
    }
    t.check(&E16B, format!("{at}, at the end"), ring.smoothness());
    t.push(&E16C, &at, moved as f64 / ops as f64, 1.5 * lg(n));
}

fn expander(t: &mut Table, p: &Params) {
    let uniform = |n: usize, seed: u64| -> Vec<(f64, f64)> {
        let mut rng = seeded(seed);
        (0..n).map(|_| (rng.gen(), rng.gen())).collect()
    };
    let (small, large) = (p.n / 32, p.n / 8);
    let multiple_choice = |n: usize, seed: u64| {
        TwoDMultipleChoice::build(n, 4, &mut seeded(seed)).points().to_vec()
    };
    for (at, smooth, pts) in [
        (format!("2D Multiple Choice, n = {small}"), true, multiple_choice(small, MASTER_SEED ^ 1)),
        (format!("2D Multiple Choice, n = {large}"), true, multiple_choice(large, MASTER_SEED ^ 2)),
        (format!("uniform random, n = {large}"), false, uniform(large, MASTER_SEED ^ 3)),
    ] {
        let x = GgExpander::build(&pts);
        let rho = x.voronoi().area_smoothness();
        let adj = x.full_adjacency();
        let d_max = adj.iter().map(Vec::len).max().expect("nonempty") as f64;
        let r = analyze(&adj, 600, MASTER_SEED);
        let vertex_expansion = (2.0 - 3.0f64.sqrt()) / (2.0 * rho);
        t.push(&E17A, &at, r.cheeger_lower, vertex_expansion / d_max);
        t.check(&E17C, &at, r.cheeger_lower / r.sweep_conductance);
        if smooth {
            t.check(&E17B, &at, x.degree_stats().0 as f64 / rho);
        }
    }
    for n in [p.n / 32, p.n / 8, p.n / 2] {
        let broken = |pts: &[(f64, f64)]| {
            let rep = smoothness2_check(pts);
            (rep.empty_big + rep.crowded_small) as f64
        };
        t.check(&E18A, at_n(n), broken(&multiple_choice(n, MASTER_SEED ^ n as u64)));
        t.check(&E18B, at_n(n), broken(&uniform(n, MASTER_SEED ^ 0x99 ^ n as u64)));
    }
}

/// `P(Bin(c, p) ≥ c/2)`: the chance a set of `c` covers, each bad with
/// probability `p`, has no honest majority (a tie is none).
fn no_honest_majority(c: usize, p: f64) -> f64 {
    let choose = |k: usize| (0..k).fold(1.0, |acc, i| acc * (c - i) as f64 / (i + 1) as f64);
    (c.div_ceil(2)..=c).map(|k| choose(k) * p.powi(k as i32) * (1.0 - p).powi((c - k) as i32)).sum()
}

fn fault(t: &mut Table, p: &Params) {
    let n = p.n;
    let live_node = |net: &OverlapNet, rng: &mut rand::rngs::StdRng| loop {
        let id = OverlapNodeId(rng.gen_range(0..n as u32));
        if net.alive(id) {
            break id;
        }
    };
    let mut rng = seeded(MASTER_SEED ^ 0x19);
    let net = OverlapNet::build(n, &mut rng);
    let (c_min, c_mean) = net.coverage_stats(500, &mut rng);
    let longest = (0..1000)
        .map(|_| {
            let from = OverlapNodeId(rng.gen_range(0..n as u32));
            let route = net.simple_lookup(from, Point(rng.gen()), &mut rng);
            assert!(route.ok, "a fault-free Simple Lookup cannot fail");
            route.hops.len() - 1
        })
        .max()
        .expect("1000 lookups");
    t.push(&E19A, at_n(n), longest as f64, lg(n) + 4.0);
    t.push(&E19B, at_n(n), net.degree_stats().0 as f64, 20.0 * lg(n));
    t.push(&E19C, at_n(n), c_min as f64, 0.5 * lg(n));
    t.push(&E19D, at_n(n), c_mean, 1.5 * lg(n));

    for fail in [0.05f64, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let mut rng = seeded(MASTER_SEED ^ (fail * 100.0) as u64);
        let mut net = OverlapNet::build(n, &mut rng);
        net.fail_random(fail, &mut rng);
        let failed = (0..500)
            .filter(|_| {
                let from = live_node(&net, &mut rng);
                !net.simple_lookup(from, Point(rng.gen()), &mut rng).ok
            })
            .count();
        let bound = lg(n) * fail.powi(c_min as i32);
        t.push(&E20A, format!("p = {fail}"), failed as f64 / 500.0, bound);
        if bound <= 0.01 {
            t.check(&E20B, format!("p = {fail}"), failed as f64);
        }
    }

    // p = 0.02 joins the old sweep so that the regime Thm 6.6 covers
    // at this n has two points, not one
    for liars in [0.02f64, 0.05, 0.1, 0.2, 0.3] {
        let at = format!("p = {liars}");
        let mut rng = seeded(MASTER_SEED ^ 0x21 ^ (liars * 100.0) as u64);
        let mut net = OverlapNet::build(n, &mut rng);
        net.model = FaultModel::FalseMessageInjection;
        net.fail_random(liars, &mut rng);
        let (mut wrong, mut msgs, mut time) = (0usize, 0usize, 0usize);
        for _ in 0..200 {
            let out = net.majority_lookup(live_node(&net, &mut rng), Point(rng.gen()));
            wrong += usize::from(!out.correct);
            msgs += out.messages;
            time += out.time;
        }
        let sets = time as f64 / 200.0;
        let bound = (sets * no_honest_majority(c_min, liars)).min(1.0);
        t.push(&E21A, &at, wrong as f64 / 200.0, bound);
        if bound <= 0.01 {
            t.check(&E21B, &at, wrong as f64);
        }
        t.push(&E21C, &at, msgs as f64 / 200.0, 1.5 * lg(n).powi(3));
        t.push(&E21D, &at, sets, lg(n) + 4.0);
    }
}

/// The floors of one replicated op at (m, k) = (8, 4), over `Inline`
/// (one message per hop, so `msgs − hops` is the clique's share).
fn quorum(t: &mut Table, p: &Params) {
    const VALUE_LEN: usize = 16 << 10;
    const ITEMS: u64 = 64;
    let (m, k) = (f64::from(M), f64::from(K));
    for &n in p.sizes {
        let mut rng = seeded(MASTER_SEED ^ 0x62 ^ n as u64);
        let mut dht = ReplicatedDht::new(DhNetwork::new(&random_points(n, 24)), M, K, &mut rng);
        let (mut put_scatter, mut get_scatter, mut get_bytes) = (0u64, 0u64, 0u64);
        for key in 0..ITEMS {
            let value = Bytes::from(vec![key as u8; VALUE_LEN]);
            let from = dht.net.random_node(&mut rng);
            let (out, _) = dht.put_over(from, key, value, Inline, rng.gen(), RetryPolicy::patient());
            put_scatter += out.msgs - out.path.hops() as u64;
        }
        for key in 0..ITEMS {
            let from = dht.net.random_node(&mut rng);
            let (out, value) = dht.get_over(from, key, Inline, rng.gen(), RetryPolicy::patient());
            assert_eq!(value.map(|v| v.len()), Some(VALUE_LEN), "a healthy store reads back");
            get_scatter += out.msgs - out.path.hops() as u64;
            get_bytes += out.bytes;
        }
        let per_op = |total: u64| total as f64 / ITEMS as f64;
        t.push(&R1, at_n(n), per_op(get_scatter), 2.0 * (k - 1.0));
        t.push(&R2, at_n(n), per_op(put_scatter), (m - 1.0) + (k - 1.0));
        let floor = (k - 1.0) * (VALUE_LEN as f64 / k + 80.0);
        t.push(&R3, at_n(n), per_op(get_bytes), floor + 64.0 * (2.0 * lg(n) + 3.0));
    }
}

/// `Inline`, counting the repair pull frames it carries.
#[derive(Default)]
struct Pulls(u64);

impl Transport for Pulls {
    fn plan(&mut self, now: u64, env: &Envelope, out: &mut Vec<Delivery>) {
        self.0 += u64::from(matches!(env.msg, Wire::RepairPull { .. } | Wire::RepairPullBatch { .. }));
        Inline.plan(now, env, out)
    }
}

/// The repair floor of one topology: graceful leaves, joins and
/// crashes through the store's churn entry points at (m, k) = (8, 4),
/// n > m, in the cycle leave, join, crash, join.
fn repair_floor_on<G: ContinuousGraph>(t: &mut Table, graph: G, n: usize) {
    const ITEMS: u64 = 256;
    const EVENTS: u64 = 40;
    let at = format!("{}, n = {n}", graph.label());
    let mut rng = seeded(MASTER_SEED ^ 0x64 ^ n as u64);
    let net = CdNetwork::build(graph, &random_points(n, 25));
    let mut dht = ReplicatedDht::new(net, M, K, &mut rng);
    let obs = Obs::recording(1 << 10);
    dht.set_obs(obs.clone());
    for key in 0..ITEMS {
        let from = dht.net.random_node(&mut rng);
        dht.put(from, key, Bytes::from(vec![key as u8; 64]), &mut rng);
    }
    let rebuilt = || obs.snapshot().counter_total("repair/shares_rebuilt");
    let (mut shifted, mut placed, mut hand_off_pulls) = (0usize, 0usize, 0u64);
    let (mut crash_shifted, mut crash_rebuilt) = (0usize, 0u64);
    for i in 0..EVENTS {
        let mut wire = Pulls::default();
        let report = if i % 2 == 0 {
            let victim = dht.net.random_node(&mut rng);
            let crash = i % 4 == 2;
            if crash {
                dht.drop_shelves_of(victim);
            }
            let before = rebuilt();
            let (_, report) = dht.leave_over(victim, &mut wire, i);
            if crash {
                crash_shifted += report.items_shifted;
                crash_rebuilt += rebuilt() - before;
            } else {
                hand_off_pulls += wire.0;
            }
            report
        } else {
            let (host, kind) = (dht.net.random_node(&mut rng), dht.kind);
            let joined = dht.join_over(host, Point(rng.gen()), kind, i, &mut wire, RetryPolicy::default());
            let Some((_, _, report)) = joined else { continue };
            hand_off_pulls += wire.0;
            report
        };
        (shifted, placed) = (shifted + report.items_shifted, placed + report.shares_rebuilt);
    }
    t.check(&R4A, &at, placed as f64 / shifted as f64);
    t.check(&R4B, &at, hand_off_pulls as f64);
    t.check(&R4C, &at, crash_rebuilt as f64 / crash_shifted as f64);
}

/// Bytes at rest per user byte at the benchmark's three geometries:
/// 64 B at (4, 2), 256 B at (8, 4) and 16 KiB at (8, 4).
fn stored_bytes(t: &mut Table, p: &Params) {
    const ITEMS: u64 = 16;
    let n = p.sizes[0];
    for (len, m, k) in [(64usize, 4u8, 2u8), (256, 8, 4), (16 << 10, 8, 4)] {
        let mut rng = seeded(MASTER_SEED ^ 0x65 ^ len as u64);
        let mut dht = ReplicatedDht::new(DhNetwork::new(&random_points(n, 26)), m, k, &mut rng);
        for key in 0..ITEMS {
            let from = dht.net.random_node(&mut rng);
            dht.put(from, key, Bytes::from(vec![key as u8; len]), &mut rng);
        }
        let holders = dht.shelves.map().values().flat_map(|it| it.holders.values());
        let shelved: usize = holders.map(|h| h.sealed.len()).sum();
        let measured = shelved as f64 / (ITEMS as usize * len) as f64;
        let bound = f64::from(m) * ((len + 8).div_ceil(usize::from(k)) + 8) as f64 / len as f64;
        t.push(&R5, format!("len = {len} B, (m, k) = ({m}, {k})"), measured, bound);
    }
}

fn repair_floor(t: &mut Table, p: &Params) {
    let n = p.sizes[0];
    repair_floor_on(t, DistanceHalving::binary(), n);
    repair_floor_on(t, ChordLike, n);
    repair_floor_on(t, DeBruijn::new(8), n);
}

fn emulation(t: &mut Table, p: &Params) {
    let hosts = 1000 * p.n / 4096;
    for (label, points) in [
        ("smooth", PointSet::evenly_spaced(hosts)),
        ("random", random_points(hosts, 22)),
    ] {
        for family in [
            GraphFamily::DeBruijn,
            GraphFamily::ShuffleExchange,
            GraphFamily::CubeConnectedCycles,
            GraphFamily::Torus,
            GraphFamily::Hypercube,
        ] {
            let emu = Emulation::with_default_k(family, points.clone());
            let at = format!("{family:?} over {hosts} {label} hosts, k = {}", emu.k);
            let s = emu.stats();
            let g = s.max_guests_per_host as f64;
            t.push(&E22A, &at, g, s.rho * (1u64 << emu.k) as f64 / hosts as f64 + 1.0);
            t.push(&E22B, &at, s.max_guest_edges_per_host_edge as f64, g * g);
            t.push(&E22C, &at, s.max_host_degree as f64, g * family.max_degree(emu.k) as f64);
        }
    }
}

fn join(t: &mut Table, p: &Params) {
    let mut changes = Vec::new();
    for &n in p.sizes {
        let mut rng = seeded(MASTER_SEED ^ 0x23 ^ n as u64);
        let mut net = DhNetwork::new(&random_points(n, 23));
        let (kind, mut eng) = (net.native_kind(), Engine::default());
        let mut notify = Vec::new();
        for i in 0..200u64 {
            // a join routes Fast Lookup on the two-phase store, so its
            // bound is E4's at the network it joins
            let bound = fast_path_bound(net.len(), net.smoothness());
            let (host, x) = (net.random_node(&mut rng), Point(rng.gen()));
            if let Some((_, cost)) = join_over(&mut eng, &mut net, host, x, kind, i, &mut Inline) {
                // under Inline a lookup message is a hop, and the
                // notifications (JoinSplit, a diff per watcher, the
                // joiner's table) reach exactly the servers whose
                // state changed
                t.push(&E23A, format!("n = {n}, join {i}"), cost.lookup_msgs as f64, bound);
                notify.push(cost.notify_msgs);
            }
        }
        changes.push(notify.iter().sum::<u64>() as f64 / notify.len() as f64);
        t.check(&E23B, at_n(n), changes[changes.len() - 1]);
        member_cost_on(t, DistanceHalving::binary(), n);
        member_cost_on(t, ChordLike, n);
        member_cost_on(t, DeBruijn::new(8), n);
        member_bound(t, n);
    }
    t.check(&E23C, sweep(p.sizes), spread(&changes));
}

/// Every live table, entry ids and segments, keyed by server.
fn tables<G: ContinuousGraph>(net: &CdNetwork<G>) -> BTreeMap<NodeId, Vec<(NodeId, Interval)>> {
    let entries = |id| net.node(id).neighbors.iter().map(|nb| (nb.id, nb.segment)).collect();
    net.live().iter().map(|&id| (id, entries(id))).collect()
}

/// §2.1's member cost, checked from outside the derivation: 32 joins
/// and 32 graceful leaves over the wire, each op's notify messages
/// against the tables a diff of every live table says it changed. One
/// point per claim sums the ops; an op that misses its count adds its
/// own point.
fn member_cost_on<G: ContinuousGraph>(t: &mut Table, graph: G, n: usize) {
    let at = format!("{}, n = {n}", graph.label());
    let mut rng = seeded(MASTER_SEED ^ 0x23DE ^ n as u64);
    let mut net = CdNetwork::build(graph, &random_points(n, 23));
    let (kind, mut eng) = (net.native_kind(), Engine::default());
    // (claim, notify messages, bound) over the joins, then the leaves
    let mut sums = [(&E23D, 0u64, 0u64), (&E23E, 0, 0)];
    let mut before = tables(&net);
    for i in 0..64u64 {
        let side = (i % 2) as usize;
        let notify = if side == 0 {
            let (host, x) = (net.random_node(&mut rng), Point(rng.gen()));
            let joined = join_over(&mut eng, &mut net, host, x, kind, i, &mut Inline);
            joined.expect("Inline joins a fresh point").1.notify_msgs
        } else {
            let v = net.random_node(&mut rng);
            leave_over(&mut eng, &mut net, v, &mut Inline).notify_msgs
        };
        let after = tables(&net);
        let changed = after.iter().filter(|&(id, table)| before.get(id) != Some(table)).count();
        // a leave's LeaveMerge rides on top of the diffs
        let bound = (side + changed) as u64;
        if notify != bound {
            t.push(sums[side].0, format!("{at}, op {i}"), notify as f64, bound as f64);
        }
        (sums[side].1, sums[side].2) = (sums[side].1 + notify, sums[side].2 + bound);
        before = after;
    }
    for (claim, notify, bound) in sums {
        t.push(claim, &at, notify as f64, bound as f64);
    }
}

/// §2.1's member cost against Cor 2.5's path and Thm 2.2's degrees:
/// 32 joins and 32 graceful leaves over the wire, alternating, each
/// a point. On random ids ρ is Θ(n log n) and those bounds say
/// nothing, so the network starts evenly spaced and §4's Multiple
/// Choice picks every joiner's point (E13D–E16D keep ρ = O(1)); a join
/// still routes Fast Lookup, whose path bound holds for any target.
fn member_bound(t: &mut Table, n: usize) {
    let mut rng = seeded(MASTER_SEED ^ 0x23F ^ n as u64);
    let mut net = DhNetwork::new(&PointSet::evenly_spaced(n));
    let (kind, mut eng) = (net.native_kind(), Engine::default());
    for i in 0..64u64 {
        let (len, rho, at) = (net.len(), net.smoothness(), format!("n = {n}, op {i}"));
        if i % 2 == 0 {
            let before = tables(&net);
            let host = net.random_node(&mut rng);
            let x = IdStrategy::MultipleChoice { t: 3 }.choose(&net, &mut rng);
            let joined = join_over(&mut eng, &mut net, host, x, kind, i, &mut Inline);
            let cost = joined.expect("Inline joins a fresh point").1;
            let after = tables(&net);
            let changed = after.iter().filter(|&(id, table)| before.get(id) != Some(table)).count();
            let bound = fast_path_bound(len, rho) + changed as f64 + 2.0;
            t.push(&E23F, at, (cost.lookup_msgs + cost.notify_msgs) as f64, bound);
        } else {
            let v = net.random_node(&mut rng);
            // Inline: the LeaveMerge, then one diff per distinct receiver
            let receivers = leave_over(&mut eng, &mut net, v, &mut Inline).notify_msgs - 1;
            let per_table = (2.0 * rho).ceil() + 1.0 + rho + 4.0 + 2.0;
            t.push(&E23G, at, receivers as f64, 2.0 * per_table);
        }
    }
}

type Order = fn(f64) -> f64;

/// The paper's Table 1, one row per scheme as `p2p_baselines` names
/// it: the order of its path length (congestion is that ÷ n) and of
/// its linkage as functions of n, and the constant each carries here.
/// Koorde is not in the paper's table; it rides along as the direct De
/// Bruijn emulation §1.1 compares with.
const TABLE1: [(&str, Order, f64, f64, Order, f64); 6] = [
    ("Chord", |n| n.log2(), 0.75, 6.0, |n| n.log2(), 2.0),
    ("Tapestry/Plaxton", |n| n.log2(), 0.35, 1.25, |n| n.log2(), 5.0),
    ("CAN (d=2)", |n| 2.0 * n.sqrt(), 0.3, 1.25, |_| 2.0, 8.0),
    ("Small-World (q=1)", |n| n.log2().powi(2), 0.35, 2.5, |_| 1.0, 4.0),
    ("Viceroy (simplified)", |n| n.log2(), 3.0, 25.0, |_| 1.0, 7.0),
    ("Koorde (direct De Bruijn)", |n| n.log2(), 4.5, 25.0, |_| 1.0, 4.0),
];

fn table1(t: &mut Table, p: &Params) {
    for &n in p.sizes.iter().skip(1).take(2) {
        let (m, nf) = (8 * n, n as f64);
        let mut rng = seeded(MASTER_SEED ^ n as u64);
        let schemes: [Box<dyn LookupScheme>; 6] = [
            Box::new(Chord::new(n, &mut rng)),
            Box::new(Plaxton::new(n, &mut rng)),
            Box::new(Can::new(n, 2, &mut rng)),
            Box::new(SmallWorld::new(n, 1, &mut rng)),
            Box::new(Viceroy::new(n, &mut rng)),
            Box::new(Koorde::new(n, &mut rng)),
        ];
        for (s, (name, path, c_path, c_cong, link, c_link)) in schemes.iter().zip(TABLE1) {
            let r = measure(s.as_ref(), m, MASTER_SEED ^ 0x7AB1 ^ n as u64);
            assert_eq!(r.name, name, "TABLE1 rows follow the scheme list");
            let at = format!("{name}, n = {n}");
            t.push(&T1A, &at, r.path.mean / path(nf), c_path);
            t.push(&T1B, &at, r.congestion / (path(nf) / nf), c_cong);
            t.push(&T1C, &at, r.max_degree as f64 / link(nf), c_link);
        }
        for delta in [2u32, 16] {
            let at = format!("Distance Halving (∆ = {delta}), n = {n}");
            let net = DhNetwork::with_delta(&random_points(n, 0x7AB1), delta);
            let r = random_lookups(&net, LookupKind::DistanceHalving, m, MASTER_SEED ^ 0xD4 ^ n as u64);
            let log_d_n = nf.ln() / f64::from(delta).ln();
            t.push(&T1A, &at, r.path_lengths.mean / log_d_n, 2.5);
            t.push(&T1B, &at, r.max_load as f64 / m as f64 / (log_d_n / nf), 25.0);
            let d = f64::from(delta);
            t.push(&T1C, &at, net.degree_stats().1 / d, (2.0 * d + 4.0) / d);
        }
    }
}

type Experiment = fn(&mut Table, &Params);

/// Every experiment with the ids of the claims it pushes.
const EXPERIMENTS: [(&str, Experiment); 18] = [
    ("E1 E2 A2", degree),
    ("E3", debruijn),
    ("E4 E6", lookup),
    ("E5", congestion),
    ("E7 A1", permutation),
    ("E8", tradeoff),
    ("E9 E10 E11", hotspot),
    ("E12", multihotspot),
    ("E13 E14 E15", balance),
    ("E16", churn),
    ("E17 E18", expander),
    ("E19 E20 E21", fault),
    ("R1 R2 R3", quorum),
    ("R4", repair_floor),
    ("R5", stored_bytes),
    ("E22", emulation),
    ("E23", join),
    ("T1", table1),
];

/// Run every experiment that owns a claim id starting with one of
/// `prefixes` (all of them when `prefixes` is empty).
pub fn run(p: &Params, prefixes: &[String]) -> Table {
    let mut t = Table::default();
    for (ids, experiment) in EXPERIMENTS {
        let wanted = |id: &str| prefixes.iter().any(|p| p.starts_with(id) || id.starts_with(p.as_str()));
        if prefixes.is_empty() || ids.split(' ').any(wanted) {
            experiment(&mut t, p);
        }
    }
    t
}
