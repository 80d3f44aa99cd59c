//! The two fault-tolerant lookup algorithms of §6.3.
//!
//! Both emulate the *canonical path* of Claim 2.4: from server `V`
//! with segment midpoint `z`, the point `h = w(σ(z)_t, y)` lies inside
//! `s(V)`, and `t` backward-map steps lead exactly to `y` (backward
//! maps are exact expansions in fixed point). Every step of the
//! canonical path is covered by `Θ(log n)` servers, all of them
//! mutual neighbors of the previous step's covers.

use crate::net::{FaultModel, OverlapNet, OverlapNodeId};
use cd_core::point::Point;
use cd_core::walk::fast_start;
use rand::Rng;

/// Result of a Simple Lookup.
#[derive(Clone, Debug)]
pub struct SimpleRoute {
    /// Servers that handled the message.
    pub hops: Vec<OverlapNodeId>,
    /// Whether a live cover of the target was reached.
    pub ok: bool,
}

/// Result of a majority (false-message-resistant) lookup.
#[derive(Clone, Debug)]
pub struct MajorityOutcome {
    /// Did the querier decide on the *authentic* value?
    pub correct: bool,
    /// Parallel time (number of covering-set steps).
    pub time: usize,
    /// Total messages sent across all steps.
    pub messages: usize,
}

impl OverlapNet {
    /// The canonical-path point sequence from `from`'s segment to `y`:
    /// `h = w(σ(z)_t, y)` followed by the exact backward expansions
    /// ending at `y`'s truncation (then `y` itself).
    fn canonical_points(&self, from: OverlapNodeId, y: Point) -> Vec<Point> {
        let (h, t) = fast_start(y, self.node(from).segment, 2);
        let mut pts = Vec::with_capacity(t + 2);
        for j in 0..=t {
            pts.push(Point(h.bits() << j));
        }
        // final correction from the truncated point to y itself
        if *pts.last().expect("nonempty") != y {
            pts.push(y);
        }
        pts
    }

    /// Simple Lookup (Theorem 6.3): forward to one random *live* cover
    /// of each successive canonical point. Fails only if some point of
    /// the path has no live cover in the current table (Theorem 6.4:
    /// w.h.p. never, for small failure probability).
    pub fn simple_lookup(
        &self,
        from: OverlapNodeId,
        y: Point,
        rng: &mut impl Rng,
    ) -> SimpleRoute {
        debug_assert!(self.alive(from), "querier must be alive");
        let pts = self.canonical_points(from, y);
        let mut hops = vec![from];
        let mut cur = from;
        for &p in pts.iter().skip(1) {
            if self.node(cur).segment.contains(p) && self.alive(cur) {
                continue; // already covered locally
            }
            let nbrs = &self.node(cur).neighbors;
            let live: Vec<OverlapNodeId> = nbrs
                .iter()
                .copied()
                .filter(|&nb| self.alive(nb) && self.node(nb).segment.contains(p))
                .collect();
            if live.is_empty() {
                return SimpleRoute { hops, ok: false };
            }
            let next = live[rng.gen_range(0..live.len())];
            hops.push(next);
            cur = next;
        }
        SimpleRoute { hops, ok: self.node(cur).segment.contains(y) && self.alive(cur) }
    }

    /// False-message-resistant lookup (Theorem 6.6). The query floods
    /// along the covering sets of the canonical path; the *response*
    /// (the item value, authentic unless a liar corrupts it) floods
    /// back with majority filtering at every step. Returns whether the
    /// querier decides correctly, plus time and message counts.
    ///
    /// Liar semantics: a `failed` server under
    /// [`FaultModel::FalseMessageInjection`] participates in routing
    /// but always vouches for a corrupted value.
    pub fn majority_lookup(&self, from: OverlapNodeId, y: Point) -> MajorityOutcome {
        assert_eq!(self.model, FaultModel::FalseMessageInjection);
        let pts = self.canonical_points(from, y);
        let mut messages = 0usize;
        // Response propagation: covering sets from the target back to
        // the querier. A server's belief is `true` (authentic) if the
        // majority of copies it received are authentic; liars always
        // transmit `false`.
        let mut step_sets: Vec<Vec<OverlapNodeId>> =
            pts.iter().rev().map(|&p| self.covers_of(p)).collect();
        // the querier itself receives the final step
        step_sets.push(vec![from]);
        let mut belief: std::collections::BTreeMap<OverlapNodeId, bool> =
            step_sets[0].iter().map(|&id| (id, true)).collect();
        for w in step_sets.windows(2) {
            let (senders, receivers) = (&w[0], &w[1]);
            let mut next: std::collections::BTreeMap<OverlapNodeId, bool> = Default::default();
            for &r in receivers {
                let mut votes_true = 0usize;
                let mut votes_false = 0usize;
                for &s in senders {
                    if s == r {
                        // a server already holding the value keeps it
                    }
                    // edge exists: covers of adjacent canonical points
                    // are mutual neighbors (validated in net.rs)
                    let value = if self.failed.contains(&s) {
                        false // liar corrupts
                    } else {
                        *belief.get(&s).unwrap_or(&false)
                    };
                    messages += 1;
                    if value {
                        votes_true += 1;
                    } else {
                        votes_false += 1;
                    }
                }
                next.insert(r, votes_true > votes_false);
            }
            belief = next;
        }
        let correct = *belief.get(&from).unwrap_or(&false);
        MajorityOutcome { correct, time: step_sets.len() - 1, messages }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_core::rng::seeded;

    #[test]
    fn simple_lookup_works_without_faults() {
        let mut rng = seeded(1);
        let net = OverlapNet::build(512, &mut rng);
        for _ in 0..200 {
            let from = OverlapNodeId(rng.gen_range(0..512));
            let y = Point(rng.gen());
            let r = net.simple_lookup(from, y, &mut rng);
            assert!(r.ok, "lookup failed in a fault-free network");
        }
    }

    #[test]
    fn theorem_6_3_path_length() {
        // length ≤ log n + O(1)
        let mut rng = seeded(2);
        let n = 1024usize;
        let net = OverlapNet::build(n, &mut rng);
        let bound = (n as f64).log2() + 4.0;
        for _ in 0..300 {
            let from = OverlapNodeId(rng.gen_range(0..n as u32));
            let y = Point(rng.gen());
            let r = net.simple_lookup(from, y, &mut rng);
            assert!(r.ok);
            assert!(
                (r.hops.len() as f64 - 1.0) <= bound,
                "{} hops > log n + O(1)",
                r.hops.len() - 1
            );
        }
    }

    #[test]
    fn theorem_6_4_survives_random_failstop() {
        let mut rng = seeded(3);
        let n = 1024usize;
        let mut net = OverlapNet::build(n, &mut rng);
        net.fail_random(0.2, &mut rng);
        let mut failures = 0usize;
        let trials = 300usize;
        for _ in 0..trials {
            let from = loop {
                let id = OverlapNodeId(rng.gen_range(0..n as u32));
                if net.alive(id) {
                    break id;
                }
            };
            let y = Point(rng.gen());
            if !net.simple_lookup(from, y, &mut rng).ok {
                failures += 1;
            }
        }
        assert!(
            failures == 0,
            "{failures}/{trials} lookups failed under p = 0.2 fail-stop"
        );
    }

    #[test]
    fn theorem_6_6_majority_lookup_correct_under_liars() {
        let mut rng = seeded(4);
        let n = 1024usize;
        let mut net = OverlapNet::build(n, &mut rng);
        net.model = FaultModel::FalseMessageInjection;
        net.fail_random(0.15, &mut rng);
        let logn = (n as f64).log2();
        for _ in 0..100 {
            let from = loop {
                let id = OverlapNodeId(rng.gen_range(0..n as u32));
                if net.alive(id) {
                    break id;
                }
            };
            let y = Point(rng.gen());
            let out = net.majority_lookup(from, y);
            assert!(out.correct, "querier deceived despite honest majorities");
            assert!(
                (out.time as f64) <= logn + 5.0,
                "parallel time {} ≫ log n",
                out.time
            );
            assert!(
                (out.messages as f64) <= 40.0 * logn.powi(3),
                "messages {} ≫ log³ n = {}",
                out.messages,
                logn.powi(3)
            );
        }
    }

    #[test]
    fn majority_lookup_fails_when_liars_dominate() {
        // sanity inversion: with 80% liars majorities flip and the
        // querier is (almost always) deceived
        let mut rng = seeded(5);
        let mut net = OverlapNet::build(512, &mut rng);
        net.model = FaultModel::FalseMessageInjection;
        net.fail_random(0.8, &mut rng);
        let mut deceived = 0usize;
        for _ in 0..50 {
            let from = loop {
                let id = OverlapNodeId(rng.gen_range(0..512));
                if net.alive(id) {
                    break id;
                }
            };
            let out = net.majority_lookup(from, Point(rng.gen()));
            if !out.correct {
                deceived += 1;
            }
        }
        assert!(deceived > 40, "only {deceived}/50 deceived at 80% liars");
    }
}
