//! Model equivalence for [`NetHealth`]'s estimator table.
//!
//! The per-destination estimators live in a slab indexed by node id
//! (grown on demand, "absent" ≡ no samples). The reference here is the
//! obvious ordered map — what the detector used before — and every
//! observable of the detector must answer identically after any
//! sequence of mutations, including ids far beyond the slab's current
//! length and id 0.

use dh_obs::{Obs, SnapValue};
use dh_proto::health::{
    NetHealth, RttEstimate, DECAY, HEDGE_RAISE, MIN_TIMEOUT, RAISE, SLOW_FACTOR, SLOW_MIN_SAMPLES,
    SLOW_PENALTY, SUSPICION_CAP, THRESHOLD,
};
use dh_proto::NodeId;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The reference: the same rules over `BTreeMap`s, reading the
/// detector's constants.
struct Model {
    rtt: BTreeMap<u32, RttEstimate>,
    global: RttEstimate,
    susp: BTreeMap<u32, u32>,
}

impl Model {
    fn new() -> Self {
        Model {
            rtt: BTreeMap::new(),
            global: RttEstimate::default(),
            susp: BTreeMap::new(),
        }
    }
    fn slow_bar(&self) -> u64 {
        SLOW_FACTOR.saturating_mul(self.global.srtt().max(1))
    }
    fn observe(&mut self, n: u32, delay: u64) {
        self.rtt.entry(n).or_default().observe(delay);
        if self.global.samples() == 0 || delay <= self.slow_bar() {
            self.global.observe(delay);
        }
    }
    fn bump(&mut self, n: u32, by: u32) {
        let s = self.susp.entry(n).or_insert(0);
        *s = s.saturating_add(by).min(SUSPICION_CAP);
    }
    fn alive(&mut self, n: u32) {
        if let Some(s) = self.susp.get_mut(&n) {
            *s = s.saturating_sub(DECAY);
            if *s == 0 {
                self.susp.remove(&n);
            }
        }
    }
    fn timeout_for(&self, n: u32, ceiling: u64) -> u64 {
        let est = match self.rtt.get(&n) {
            Some(e) => e,
            None if self.global.samples() > 0 => &self.global,
            None => return ceiling,
        };
        est.rto().saturating_mul(3).clamp(MIN_TIMEOUT.min(ceiling), ceiling)
    }
    fn is_slow(&self, n: u32) -> bool {
        let min = SLOW_MIN_SAMPLES;
        self.rtt.get(&n).is_some_and(|e| {
            e.samples() >= min && self.global.samples() >= min && e.srtt() > self.slow_bar()
        })
    }
    fn suspicion(&self, n: u32) -> u32 {
        let penalty = if self.is_slow(n) { SLOW_PENALTY } else { 0 };
        self.susp.get(&n).copied().unwrap_or(0).saturating_add(penalty)
    }
    fn suspect_nodes(&self) -> Vec<NodeId> {
        self.susp.keys().filter(|&&n| self.suspicion(n) >= THRESHOLD).map(|&n| NodeId(n)).collect()
    }
    /// The gauges `export` writes, in registry (name, label) order.
    fn exported(&self) -> Vec<(&'static str, u64, u64)> {
        let mut rows: Vec<_> =
            self.rtt.iter().map(|(&n, e)| ("health/rto_ticks", u64::from(n), e.rto())).collect();
        rows.extend(
            self.susp.keys().map(|&n| ("health/suspicion", u64::from(n), self.suspicion(n).into())),
        );
        rows.push(("health/suspects", 0, self.suspect_nodes().len() as u64));
        rows.sort_unstable();
        rows
    }
}

/// Ids the sequences draw from: 0, a dense low block, and a few far
/// beyond whatever the slab has grown to (each first touch of a far id
/// is a large on-demand growth, every id in between stays "absent").
const IDS: [u32; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 900, 70_000, 70_001, 250_000];
/// Never mutated: probes the gaps and the out-of-range read path.
const PROBES: [u32; 4] = [8, 899, 100_000, u32::MAX];

fn exported(h: &NetHealth) -> Vec<(&'static str, u64, u64)> {
    let obs = Obs::recording(16);
    h.export(&obs);
    obs.snapshot()
        .rows
        .into_iter()
        .filter_map(|r| match r.value {
            SnapValue::Gauge(v) => Some((r.name, r.label, v)),
            _ => None,
        })
        .collect()
}

proptest! {
    #[test]
    fn slab_detector_matches_the_map_reference(
        ops in proptest::collection::vec((0u8..40, 0usize..IDS.len(), 0u64..24), 1..300),
    ) {
        let mut h = NetHealth::new();
        let mut m = Model::new();
        for (step, &(kind, pick, jitter)) in ops.iter().enumerate() {
            let n = IDS[pick];
            match kind {
                // mostly deliveries: healthy for most ids, grey (far
                // above the population) for the odd picks, so the slow
                // penalty and the global-estimator filter both engage
                0..=23 => {
                    let delay = if pick % 4 == 3 { 80 + jitter } else { 8 + jitter % 6 };
                    h.observe(NodeId(n), delay);
                    m.observe(n, delay);
                }
                24..=28 => { h.raise(NodeId(n)); m.bump(n, RAISE); }
                29..=32 => { h.raise_hedge(NodeId(n)); m.bump(n, HEDGE_RAISE); }
                33..=38 => { h.alive(NodeId(n)); m.alive(n); }
                _ => { h.reset(); m = Model::new(); }
            }
            for &p in IDS.iter().chain(&PROBES) {
                let id = NodeId(p);
                let est = m.rtt.get(&p);
                prop_assert_eq!(h.estimate(id), est, "estimate({p}) @ {step}");
                prop_assert_eq!(h.rto(id), est.map(RttEstimate::rto), "rto({p}) @ {step}");
                for cap in [4, 512] {
                    let want = m.timeout_for(p, cap);
                    prop_assert_eq!(h.timeout_for(id, cap), want, "timeout_for({p}) @ {step}");
                }
                let suspect = m.suspicion(p) >= THRESHOLD;
                prop_assert_eq!(h.is_slow(id), m.is_slow(p), "is_slow({p}) @ {step}");
                prop_assert_eq!(h.suspicion(id), m.suspicion(p), "suspicion({p}) @ {step}");
                prop_assert_eq!(h.is_suspect(id), suspect, "is_suspect({p}) @ {step}");
            }
            prop_assert_eq!(h.global_estimate(), &m.global);
            prop_assert_eq!(h.suspect_nodes(), m.suspect_nodes(), "suspect_nodes @ {step}");
            prop_assert_eq!(h.suspects(), m.suspect_nodes().len());
            if step % 64 == 0 || step + 1 == ops.len() {
                prop_assert_eq!(exported(&h), m.exported(), "export @ {step}");
            }
        }
    }
}

proptest! {
    /// The per-destination log is invisible: observes interleave with
    /// single reads of every observable, and each read — including one
    /// taken after many unfolded observes, with no explicit fold —
    /// answers what the eagerly folded model answers.
    #[test]
    fn deferred_folds_are_invisible(
        ops in proptest::collection::vec((0u8..48, 0usize..IDS.len(), 0u64..24), 1..400),
    ) {
        let mut h = NetHealth::new();
        let mut m = Model::new();
        for (step, &(kind, pick, jitter)) in ops.iter().enumerate() {
            let n = IDS[pick];
            let id = NodeId(n);
            match kind {
                0..=23 => {
                    let delay = if pick % 4 == 3 { 80 + jitter } else { 8 + jitter % 6 };
                    h.observe(id, delay);
                    m.observe(n, delay);
                }
                24..=25 => { h.raise(id); m.bump(n, RAISE); }
                26 => { h.raise_hedge(id); m.bump(n, HEDGE_RAISE); }
                27..=28 => { h.alive(id); m.alive(n); }
                29..=30 => {
                    let est = m.rtt.get(&n).copied();
                    prop_assert_eq!(h.estimate(id).copied(), est, "estimate({}) @ {}", n, step);
                }
                31..=32 => {
                    let cap = [4, 512][(jitter % 2) as usize];
                    prop_assert_eq!(h.timeout_for(id, cap), m.timeout_for(n, cap), "timeout_for({}) @ {}", n, step);
                }
                33..=34 => prop_assert_eq!(h.suspicion(id), m.suspicion(n), "suspicion({}) @ {}", n, step),
                35..=36 => {
                    let suspect = m.suspicion(n) >= THRESHOLD;
                    prop_assert_eq!(h.is_suspect(id), suspect, "is_suspect({}) @ {}", n, step);
                }
                37..=38 => {
                    let rto = m.rtt.get(&n).map(RttEstimate::rto);
                    prop_assert_eq!(h.rto(id), rto, "rto({}) @ {}", n, step);
                }
                39..=40 => prop_assert_eq!(h.suspect_nodes(), m.suspect_nodes(), "suspect_nodes @ {}", step),
                41..=42 => prop_assert_eq!(exported(&h), m.exported(), "export @ {}", step),
                43..=44 => prop_assert_eq!(h.is_slow(id), m.is_slow(n), "is_slow({}) @ {}", n, step),
                45..=46 => prop_assert_eq!(h.global_estimate(), &m.global, "global @ {}", step),
                _ => { h.reset(); m = Model::new(); }
            }
        }
        // and once folded, the slab itself is the model
        for &p in IDS.iter().chain(&PROBES) {
            prop_assert_eq!(h.estimate(NodeId(p)), m.rtt.get(&p), "folded estimate({})", p);
        }
    }
}
