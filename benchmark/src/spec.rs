//! What is measured: the workloads and the end-to-end metric table.
//! `BENCHMARK.json` at the repository root repeats both for the
//! driver; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Computed by the program, not timed: repeats bit-for-bit for a
    /// seed, so `compare` demands equality rather than a bound.
    pub exact: bool,
}

const fn wall(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
        exact: true,
    }
}

/// The end-to-end metrics, every one reported by every workload.
pub const END_TO_END: &[Metric] = &[
    wall("setup_s", "s", Better::Lower, 0.25),
    wall("ops_per_s", "ops/s", Better::Higher, 0.25),
    wall("put_p50_us", "us", Better::Lower, 0.25),
    wall("get_p50_us", "us", Better::Lower, 0.25),
    exact("msgs_per_op", "msgs", 0.02),
    exact("wire_bytes_per_op", "B", 0.02),
    exact("churn_msgs_per_event", "msgs", 0.05),
    exact("stored_bytes_per_user_byte", "ratio", 0.02),
    wall("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// The per-layer metrics of the traced run: name, unit, direction.
/// They carry no bound; a workload without the layer reports 0.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("core.hash_point_ns", "ns", Better::Lower),
    ("dht.build_s", "s", Better::Lower),
    ("dht.lookup_ns", "ns", Better::Lower),
    ("dht.hops_per_lookup", "count", Better::Lower),
    ("dht.lookup_ns_per_hop", "ns", Better::Lower),
    ("dht.clique_of_ns", "ns", Better::Lower),
    ("dht.join_ns", "ns", Better::Lower),
    ("dht.leave_ns", "ns", Better::Lower),
    ("dht.churn_msgs_per_event", "msgs", Better::Lower),
    ("proto.engine_locate_ns", "ns", Better::Lower),
    ("proto.msgs_per_locate", "count", Better::Lower),
    ("proto.engine_ns_per_msg", "ns", Better::Lower),
    ("proto.engine_overhead_ratio", "ratio", Better::Lower),
    ("proto.engine_putshares_ns", "ns", Better::Lower),
    ("proto.engine_getshares_ns", "ns", Better::Lower),
    ("proto.health_ns_per_op", "ns", Better::Lower),
    ("proto.wire_bytes_per_msg", "B", Better::Lower),
    ("proto.stale_share", "ratio", Better::Lower),
    ("proto.retries_per_op", "count", Better::Lower),
    ("proto.get_ticks_p50", "ticks", Better::Lower),
    ("proto.get_ticks_p99", "ticks", Better::Lower),
    ("proto.put_ticks_p50", "ticks", Better::Lower),
    ("proto.put_ticks_p99", "ticks", Better::Lower),
    ("erasure.encode_ns", "ns", Better::Lower),
    ("erasure.decode_ns", "ns", Better::Lower),
    ("erasure.encode_mb_per_s", "MB/s", Better::Higher),
    ("erasure.decode_mb_per_s", "MB/s", Better::Higher),
    ("erasure.seal_ns", "ns", Better::Lower),
    ("erasure.open_ns", "ns", Better::Lower),
    ("store.park_commit_ns", "ns", Better::Lower),
    ("store.wal_bytes_per_user_byte", "ratio", Better::Lower),
    ("store.wal_records_per_put", "count", Better::Lower),
    ("store.compactions", "count", Better::Lower),
    ("store.compact_s", "s", Better::Lower),
    ("store.restart_s", "s", Better::Lower),
    ("store.recover_mb_per_s", "MB/s", Better::Higher),
    ("store.recover_records", "count", Better::Lower),
    ("store.restart_repair_msgs", "msgs", Better::Lower),
    ("replica.put_self_ns", "ns", Better::Lower),
    ("replica.get_self_ns", "ns", Better::Lower),
    ("replica.put_p99_us", "us", Better::Lower),
    ("replica.get_p99_us", "us", Better::Lower),
    ("replica.put_p999_us", "us", Better::Lower),
    ("replica.get_p999_us", "us", Better::Lower),
    ("replica.put_samples", "count", Better::Higher),
    ("replica.get_samples", "count", Better::Higher),
    ("replica.join_over_ns", "ns", Better::Lower),
    ("replica.leave_over_ns", "ns", Better::Lower),
    ("replica.pump_ns_per_op", "ns", Better::Lower),
    ("replica.repair_msgs_per_churn", "msgs", Better::Lower),
    ("replica.repair_bytes_per_churn", "B", Better::Lower),
    ("replica.shares_rebuilt_per_churn", "count", Better::Lower),
    ("replica.backlog_peak_frames", "count", Better::Lower),
    ("replica.items_lost", "count", Better::Lower),
    ("obs.recorder_overhead_pct", "%", Better::Lower),
    ("obs.events_per_op", "count", Better::Lower),
    ("obs.ring_overflow", "count", Better::Lower),
    ("gen.late_p99_us", "us", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
];

/// Look an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The overlay instance and routing of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overlay {
    /// Distance Halving ∆ = 2, native randomized two-phase lookup.
    DistanceHalving,
    /// Chord-like, greedy routing.
    Chord,
    /// Base-8 de Bruijn, deterministic Fast lookup.
    DeBruijn8Fast,
}

/// One workload: a fixed shape, everything random drawn from the seed.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as given to `--workload`.
    pub name: &'static str,
    /// Why it exists (one line; repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Overlay instance and lookup.
    pub overlay: Overlay,
    /// Servers.
    pub n: usize,
    /// Shares per item.
    pub m: u8,
    /// Reconstruction threshold.
    pub k: u8,
    /// `FileShelves` (WAL) instead of `MemShelves`.
    pub file_backend: bool,
    /// `Sim::with_latency(4, 16, 4)` instead of `Inline`.
    pub sim_transport: bool,
    /// Distinct keys, all preloaded during set-up.
    pub keys: usize,
    /// Bytes per value.
    pub value_len: usize,
    /// Zipf(1) key popularity instead of uniform.
    pub zipf: bool,
    /// Share of puts, in percent; the rest are gets.
    pub put_pct: u32,
    /// Open loop at this many ops/s; `None` is a closed loop of one
    /// client.
    pub open_loop_rate: Option<u64>,
    /// In-stream churn: one leave or join (alternating) before every
    /// this-many-th op, with paced repair pumped after each op.
    pub churn_every: Option<usize>,
    /// Ops the exact (counted) metrics are taken over: a fixed prefix
    /// of the stream, so they do not depend on how fast the box is.
    pub exact_ops: usize,
    /// Leave/join pairs run after the stream (unpaced repair) where
    /// the stream itself has no churn.
    pub churn_tail_pairs: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setups: usize,
    /// Ops replayed by each pass of the traced run.
    pub trace_ops: usize,
}

/// Repair frames priced per `pump_repair` call under in-stream churn.
pub const REPAIR_PACE: u32 = 8;

/// The four workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "route_heavy",
        why: "65 536-server Distance Halving, 64 B values, 90 % gets: ~30 routed messages per op over tables larger than cache, so engine and topology work shows and payload work does not",
        overlay: Overlay::DistanceHalving,
        n: 65_536,
        m: 4,
        k: 2,
        file_backend: false,
        sim_transport: false,
        keys: 20_000,
        value_len: 64,
        zipf: false,
        put_pct: 10,
        open_loop_rate: None,
        churn_every: None,
        exact_ops: 100_000,
        churn_tail_pairs: 3_000,
        setups: 4,
        trace_ops: 40_000,
    },
    Workload {
        name: "payload_heavy",
        why: "1 024-server Chord-like, 16 KiB values, half puts: Reed-Solomon encode and decode are ~80 % of an op and routing ~10 %, so coder and copy work shows and routing work does not",
        overlay: Overlay::Chord,
        n: 1_024,
        m: 8,
        k: 4,
        file_backend: false,
        sim_transport: false,
        keys: 2_000,
        value_len: 16 * 1024,
        zipf: false,
        put_pct: 50,
        open_loop_rate: None,
        churn_every: None,
        exact_ops: 40_000,
        churn_tail_pairs: 300,
        setups: 8,
        trace_ops: 15_000,
    },
    Workload {
        name: "wal_write",
        why: "de Bruijn-8 Fast lookup over FileShelves at its defaults, 1 KiB values, 80 % puts: the only workload that appends, compacts and recovers the write-ahead log",
        overlay: Overlay::DeBruijn8Fast,
        n: 4_096,
        m: 8,
        k: 4,
        file_backend: true,
        sim_transport: false,
        keys: 1_000,
        value_len: 1024,
        zipf: false,
        put_pct: 80,
        open_loop_rate: None,
        churn_every: None,
        exact_ops: 100_000,
        churn_tail_pairs: 2_500,
        setups: 20,
        trace_ops: 50_000,
    },
    Workload {
        name: "churn_slo",
        why: "open loop at a fixed rate over a latency-modelled transport, Zipf keys, a leave or join every 25 ops with paced repair: the only workload with a clock, queueing and in-stream churn",
        overlay: Overlay::DistanceHalving,
        n: 10_000,
        m: 8,
        k: 4,
        file_backend: false,
        sim_transport: true,
        keys: 5_000,
        value_len: 256,
        zipf: true,
        put_pct: 30,
        open_loop_rate: Some(10_000),
        churn_every: Some(25),
        exact_ops: 50_000,
        churn_tail_pairs: 0,
        setups: 10,
        trace_ops: 30_000,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `--quick` variant: every count cut to a twentieth and one
    /// set-up, same shape otherwise.
    pub fn quick(mut self) -> Workload {
        self.exact_ops /= 20;
        self.churn_tail_pairs /= 20;
        self.trace_ops /= 20;
        self.setups = 1;
        self
    }

    /// Live user bytes: every key holds one value of the fixed length.
    pub fn user_bytes(&self) -> u64 {
        (self.keys * self.value_len) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let word = |b: Better| {
            if b == Better::Lower {
                "lower"
            } else {
                "higher"
            }
            .to_string()
        };

        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .expect("workloads")
            .arr()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.chars().count() <= 200 && !w.why.contains('\n')));

        let listed: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .expect("end_to_end")
            .arr()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::num).unwrap_or(-1.0);
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    word(m.better),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Better::Lower));

        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .expect("per_layer")
            .arr()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), word(b)))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn quick_keeps_the_shape() {
        for w in WORKLOADS {
            let q = w.quick();
            assert_eq!(
                (q.n, q.keys, q.value_len, q.put_pct),
                (w.n, w.keys, w.value_len, w.put_pct)
            );
            assert_eq!(q.exact_ops * 20, w.exact_ops);
            assert!(q.trace_ops > 0 && q.setups == 1);
        }
    }
}
