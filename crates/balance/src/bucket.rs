//! The bucket solution for deletions (§4.1, after Viceroy).
//!
//! Identifier points are grouped into contiguous chains (*buckets*) of
//! `Θ(log n)` servers. Each bucket owns the arc from its first point to
//! the next bucket's first point. Two invariants are maintained:
//!
//! 1. bucket sizes stay within `[lo·log n, hi·log n]` — oversized
//!    buckets split, undersized ones merge with a neighbor;
//! 2. within a bucket, segments stay balanced — when the local
//!    max/min ratio exceeds a tunable threshold, the bucket's members
//!    reposition evenly across its span (cost: the number of servers
//!    that moved, which the experiments report per operation).
//!
//! The correctness intuition (from the paper): w.h.p. every arc of
//! length `Θ(log n / n)` contains `Θ(log n)` random points, so bucket
//! spans concentrate and intra-bucket balancing yields global
//! `ρ = O(1)` even under adversarial-order joins and leaves.
//!
//! Representation note: bucket 0 starts at the numerically smallest
//! point and the *last* bucket's span wraps through zero, so each
//! bucket stores its members ordered by **offset from the bucket
//! start** (which coincides with numeric order for every bucket except
//! the wrapping tail of the last one).

use crate::ring::Ring;
use cd_core::interval::FULL;
use cd_core::point::Point;
use rand::Rng;

/// Tunable parameters of the bucket scheme.
#[derive(Clone, Copy, Debug)]
pub struct BucketConfig {
    /// Split a bucket larger than `hi × log₂ n`.
    pub hi: f64,
    /// Merge a bucket smaller than `lo × log₂ n`.
    pub lo: f64,
    /// Rebalance a bucket when its internal max/min segment ratio
    /// exceeds this.
    pub balance_ratio: f64,
}

impl Default for BucketConfig {
    fn default() -> Self {
        BucketConfig { hi: 4.0, lo: 1.0, balance_ratio: 4.0 }
    }
}

/// A ring of identifier points organised into balanced buckets.
#[derive(Clone, Debug)]
pub struct BucketRing {
    /// Buckets in ring order. Bucket `i` spans from `buckets[i][0]`
    /// (its start) to `buckets[i+1][0]`; members are ordered by offset
    /// from the start. Bucket starts are ascending numerically.
    buckets: Vec<Vec<u64>>,
    config: BucketConfig,
    /// Servers repositioned by the most recent operation.
    pub last_moved: usize,
}

impl BucketRing {
    /// Start a bucket ring from initial points (at least 2 distinct).
    pub fn new(initial: &[Point], config: BucketConfig) -> Self {
        let mut pts: Vec<u64> = initial.iter().map(|p| p.bits()).collect();
        pts.sort_unstable();
        pts.dedup();
        assert!(pts.len() >= 2, "bucket ring needs at least two distinct servers");
        let mut br = BucketRing { buckets: vec![pts], config, last_moved: 0 };
        br.restructure();
        br.last_moved = 0;
        br
    }

    /// Total number of servers.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(std::vec::Vec::len).sum()
    }

    /// True iff there are no servers (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Bucket sizes in ring order.
    pub fn bucket_sizes(&self) -> Vec<usize> {
        self.buckets.iter().map(std::vec::Vec::len).collect()
    }

    fn log_n(&self) -> f64 {
        (self.len().max(2) as f64).log2()
    }

    /// The index of the bucket whose span covers `z`.
    fn bucket_of(&self, z: Point) -> usize {
        match self.buckets.binary_search_by_key(&z.bits(), |b| b[0]) {
            Ok(i) => i,
            Err(0) => self.buckets.len() - 1, // wraps into the last bucket
            Err(i) => i - 1,
        }
    }

    /// Join a server: a uniformly random point is inserted into its
    /// covering bucket (Single Choice + bucket maintenance). Returns
    /// the identifier chosen.
    pub fn join(&mut self, rng: &mut impl Rng) -> Point {
        self.last_moved = 0;
        loop {
            let z = Point(rng.gen());
            let bi = self.bucket_of(z);
            let start = Point(self.buckets[bi][0]);
            let off = z.offset_from(start);
            if self.buckets[bi].iter().any(|&p| p == z.bits()) {
                continue; // astronomically unlikely collision
            }
            let pos =
                self.buckets[bi].partition_point(|&p| Point(p).offset_from(start) < off);
            self.buckets[bi].insert(pos, z.bits());
            self.maintain(bi);
            return z;
        }
    }

    /// Remove a uniformly random server (random fail/leave).
    pub fn leave_random(&mut self, rng: &mut impl Rng) -> Point {
        assert!(self.len() > 2, "refusing to shrink below 2 servers");
        self.last_moved = 0;
        let mut k = rng.gen_range(0..self.len());
        let mut bi = 0usize;
        while k >= self.buckets[bi].len() {
            k -= self.buckets[bi].len();
            bi += 1;
        }
        let gone = Point(self.buckets[bi].remove(k));
        if self.buckets[bi].is_empty() {
            self.buckets.remove(bi);
        } else {
            self.maintain(bi);
        }
        gone
    }

    /// Enforce size bounds and intra-bucket balance around bucket `bi`.
    fn maintain(&mut self, bi: usize) {
        let logn = self.log_n();
        let hi = (self.config.hi * logn).ceil() as usize;
        let lo = (self.config.lo * logn).floor().max(1.0) as usize;
        if self.buckets[bi].len() > hi && self.buckets[bi].len() >= 2 {
            // split at the median member
            let b = &mut self.buckets[bi];
            let tail = b.split_off(b.len() / 2);
            self.buckets.insert(bi + 1, tail);
            self.rebalance(bi);
            self.rebalance(bi + 1);
        } else if self.buckets[bi].len() < lo && self.buckets.len() > 1 {
            if bi == 0 {
                // merge forward into the successor, which keeps bucket
                // starts ascending (the merged bucket inherits bucket
                // 0's start).
                let moved = self.buckets.remove(0);
                let mut merged = moved;
                merged.extend(std::mem::take(&mut self.buckets[0]));
                self.buckets[0] = merged;
                self.maintain(0);
            } else {
                // merge backward into the ring predecessor
                let moved = self.buckets.remove(bi);
                let dest = bi - 1;
                self.buckets[dest].extend(moved);
                self.maintain(dest);
            }
        } else {
            self.rebalance_if_skewed(bi);
        }
    }

    /// Span of bucket `bi`: `(start, length)` — from its first point to
    /// the next bucket's first point (full circle for a single bucket).
    fn span(&self, bi: usize) -> (Point, u128) {
        let start = Point(self.buckets[bi][0]);
        if self.buckets.len() == 1 {
            return (start, FULL);
        }
        let next = Point(self.buckets[(bi + 1) % self.buckets.len()][0]);
        let len = next.offset_from(start) as u128;
        (start, if len == 0 { FULL } else { len })
    }

    fn rebalance_if_skewed(&mut self, bi: usize) {
        let (start, span) = self.span(bi);
        let b = &self.buckets[bi];
        if b.len() < 2 {
            return;
        }
        let mut min = u128::MAX;
        let mut max = 0u128;
        for (i, &p) in b.iter().enumerate() {
            let seg = if i + 1 < b.len() {
                Point(b[i + 1]).offset_from(Point(p)) as u128
            } else {
                span - Point(p).offset_from(start) as u128
            };
            min = min.min(seg.max(1));
            max = max.max(seg);
        }
        if max as f64 / min as f64 > self.config.balance_ratio {
            self.rebalance(bi);
        }
    }

    /// Reposition the bucket's members evenly across its span.
    fn rebalance(&mut self, bi: usize) {
        let (start, span) = self.span(bi);
        let k = self.buckets[bi].len();
        assert!(span >= k as u128, "span too small to hold {k} distinct points");
        let mut moved = 0usize;
        let mut fresh = Vec::with_capacity(k);
        for i in 0..k {
            let off = (span * i as u128 / k as u128) as u64;
            let p = start.wrapping_add(off).bits();
            if self.buckets[bi][i] != p {
                moved += 1;
            }
            fresh.push(p);
        }
        self.buckets[bi] = fresh;
        self.last_moved += moved;
    }

    fn restructure(&mut self) {
        // initial split into Θ(log n) buckets
        loop {
            let logn = self.log_n();
            let hi = (self.config.hi * logn).ceil() as usize;
            let Some(bi) = self.buckets.iter().position(|b| b.len() > hi) else { break };
            let b = &mut self.buckets[bi];
            let tail = b.split_off(b.len() / 2);
            self.buckets.insert(bi + 1, tail);
        }
        for bi in 0..self.buckets.len() {
            self.rebalance(bi);
        }
    }

    /// Flatten to a [`Ring`] for smoothness measurement.
    pub fn to_ring(&self) -> Ring {
        Ring::from_points(self.buckets.iter().flatten().map(|&b| Point(b)))
    }

    /// Global smoothness of the current configuration.
    pub fn smoothness(&self) -> f64 {
        self.to_ring().smoothness()
    }

    /// Validate structural invariants (test helper).
    pub fn validate(&self) {
        assert!(!self.buckets.is_empty());
        for b in &self.buckets {
            assert!(!b.is_empty(), "empty bucket");
        }
        let starts: Vec<u64> = self.buckets.iter().map(|b| b[0]).collect();
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "buckets out of ring order");
        for bi in 0..self.buckets.len() {
            let (start, span) = self.span(bi);
            let offs: Vec<u128> = self.buckets[bi]
                .iter()
                .map(|&p| Point(p).offset_from(start) as u128)
                .collect();
            assert!(offs.windows(2).all(|w| w[0] < w[1]), "bucket not in ring order");
            assert!(
                offs.iter().all(|&o| o < span),
                "point outside bucket span (bucket {bi})"
            );
        }
        // all points globally distinct
        let ring = self.to_ring();
        assert_eq!(ring.len(), self.len(), "duplicate points across buckets");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_core::rng::seeded;

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = seeded(seed);
        (0..n).map(|_| Point(rng.gen())).collect()
    }

    #[test]
    fn construction_buckets_are_log_sized() {
        let br = BucketRing::new(&random_points(1024, 1), BucketConfig::default());
        br.validate();
        let logn = (br.len() as f64).log2();
        for s in br.bucket_sizes() {
            assert!(s as f64 <= 4.0 * logn + 1.0, "bucket size {s} > hi·log n");
        }
    }

    #[test]
    fn smoothness_constant_after_construction() {
        let br = BucketRing::new(&random_points(1024, 2), BucketConfig::default());
        assert!(br.smoothness() <= 16.0, "ρ = {}", br.smoothness());
    }

    #[test]
    fn joins_preserve_invariants_and_smoothness() {
        let mut rng = seeded(3);
        let mut br = BucketRing::new(&random_points(256, 3), BucketConfig::default());
        for i in 0..1000 {
            br.join(&mut rng);
            if i % 100 == 0 {
                br.validate();
            }
        }
        br.validate();
        assert!(br.smoothness() <= 16.0, "ρ = {}", br.smoothness());
    }

    #[test]
    fn deletions_preserve_smoothness() {
        // The motivating failure of naive deletion (§4.1): deleting a
        // random half of 2n smooth points creates Ω(log n / n) gaps.
        // The bucket scheme keeps ρ constant instead.
        let mut rng = seeded(4);
        let mut br = BucketRing::new(&random_points(2048, 4), BucketConfig::default());
        for i in 0..1024 {
            br.leave_random(&mut rng);
            if i % 100 == 0 {
                br.validate();
            }
        }
        br.validate();
        assert!(br.smoothness() <= 16.0, "ρ = {} after mass deletion", br.smoothness());
    }

    #[test]
    fn mixed_churn_keeps_constant_smoothness() {
        let mut rng = seeded(5);
        let mut br = BucketRing::new(&random_points(512, 5), BucketConfig::default());
        let mut worst: f64 = 1.0;
        for i in 0..4000 {
            if rng.gen_bool(0.5) && br.len() > 64 {
                br.leave_random(&mut rng);
            } else {
                br.join(&mut rng);
            }
            if i % 200 == 0 {
                worst = worst.max(br.smoothness());
                br.validate();
            }
        }
        br.validate();
        worst = worst.max(br.smoothness());
        assert!(worst <= 24.0, "worst ρ under churn = {worst}");
    }

    #[test]
    fn movement_cost_is_bounded_per_op() {
        let mut rng = seeded(6);
        let mut br = BucketRing::new(&random_points(512, 6), BucketConfig::default());
        let logn = (br.len() as f64).log2();
        let mut total_moved = 0usize;
        let ops = 2000usize;
        for _ in 0..ops {
            if rng.gen_bool(0.5) && br.len() > 64 {
                br.leave_random(&mut rng);
            } else {
                br.join(&mut rng);
            }
            total_moved += br.last_moved;
        }
        // amortised movement should be O(log n) per op (a bucket
        // rebalance touches one bucket of Θ(log n) members)
        let per_op = total_moved as f64 / ops as f64;
        assert!(per_op <= 3.0 * logn, "amortised movement {per_op:.1} ≫ log n");
    }

    #[test]
    fn naive_deletion_baseline_degrades() {
        // Contrast experiment backing §4.1's motivation: without the
        // bucket scheme, deleting half the points inflates ρ well past
        // the bucket scheme's bound.
        let mut rng = seeded(7);
        let mut ring = Ring::from_points(random_points(2048, 7));
        let victims: Vec<Point> = ring.iter().filter(|_| rng.gen_bool(0.5)).collect();
        for v in victims {
            ring.remove(v);
        }
        assert!(
            ring.smoothness() > 24.0,
            "naive deletion unexpectedly kept ρ = {}",
            ring.smoothness()
        );
    }
}
