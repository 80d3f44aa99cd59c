//! Plaxton-style prefix routing (the mechanism underlying Tapestry and
//! Pastry): identifiers are strings of base-2^b digits; a node's
//! routing table holds, for every prefix length `ℓ` it shares with a
//! key and every next digit `d`, some node matching `prefix‖d`. Each
//! hop fixes one more digit, so paths take `O(log_{2^b} n)` hops with
//! `O(2^b · log_{2^b} n)` linkage — Table 1's Tapestry row.
//!
//! Keys without an exact match use *surrogate routing* (Tapestry's
//! rule): at a missing entry, deterministically take the next existing
//! digit at that level, which routes every key to a unique owner.

use crate::scheme::LookupScheme;
use cd_core::rng::splitmix64;
use rand::Rng;

const B: u32 = 4; // digit width: hexadecimal digits
const DIGITS: usize = (64 / B) as usize;
const RADIX: usize = 1 << B;

/// A Plaxton/Tapestry-style prefix-routing network.
pub struct Plaxton {
    /// Sorted node identifiers.
    ids: Vec<u64>,
    /// `table[v][ℓ][d]`: node matching `prefix_ℓ(ids[v]) ‖ d`, if any.
    table: Vec<Vec<[Option<u32>; RADIX]>>,
}

fn digit(id: u64, level: usize) -> usize {
    ((id >> (64 - B as usize * (level + 1))) & (RADIX as u64 - 1)) as usize
}

impl Plaxton {
    /// Build with `n` random identifiers.
    pub fn new(n: usize, rng: &mut impl Rng) -> Self {
        let mut ids: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        ids.sort_unstable();
        ids.dedup();
        while ids.len() < n {
            ids.push(rng.gen());
            ids.sort_unstable();
            ids.dedup();
        }
        let mut table = Vec::with_capacity(n);
        for v in 0..n {
            let mut levels = Vec::with_capacity(DIGITS);
            for l in 0..DIGITS {
                let mut row: [Option<u32>; RADIX] = [None; RADIX];
                // nodes sharing an l-digit prefix with v form a
                // contiguous id range; scan it once
                let shift = 64 - B as usize * l;
                let (lo, hi) = if l == 0 {
                    (0usize, n)
                } else {
                    let prefix = ids[v] >> shift;
                    let lo = ids.partition_point(|&x| (x >> shift) < prefix);
                    let hi = ids.partition_point(|&x| (x >> shift) <= prefix);
                    (lo, hi)
                };
                // the nodes extending the prefix by one digit `d` are a
                // contiguous run; `v` keeps itself for its own digit and
                // otherwise picks its *own* member of the run, as a
                // Tapestry node does — one representative shared by
                // every table would carry 1/2^b of all traffic, which
                // is not Table 1's (log n)/n congestion
                let mut i = lo;
                while i < hi {
                    let d = digit(ids[i], l);
                    let end = i + ids[i..hi].partition_point(|&x| digit(x, l) == d);
                    let pick = splitmix64(((v as u64) << 16) ^ ((l as u64) << 8) ^ d as u64);
                    let member = if (i..end).contains(&v) { v } else { i + (pick % (end - i) as u64) as usize };
                    row[d] = Some(member as u32);
                    i = end;
                }
                levels.push(row);
                if hi - lo == 1 {
                    break; // v is alone at this prefix depth
                }
            }
            table.push(levels);
        }
        Plaxton { ids, table }
    }

    /// Surrogate digit choice: the next existing digit ≥ `want`
    /// (cyclically) at this level of `v`'s table.
    fn surrogate(&self, v: usize, level: usize, want: usize) -> Option<u32> {
        let row = self.table[v].get(level)?;
        (0..RADIX).map(|k| (want + k) % RADIX).find_map(|d| row[d])
    }
}

impl LookupScheme for Plaxton {
    fn name(&self) -> String {
        "Tapestry/Plaxton".into()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn degree_of(&self, node: usize) -> usize {
        self.table[node]
            .iter()
            .flatten()
            .flatten()
            .filter(|&&e| e as usize != node)
            .collect::<std::collections::HashSet<_>>()
            .len()
    }

    fn route(&self, from: usize, key: u64, _rng: &mut rand::rngs::StdRng) -> Vec<usize> {
        let mut path = vec![from];
        let mut cur = from;
        for level in 0..DIGITS {
            let want = digit(key, level);
            let Some(next) = self.surrogate(cur, level, want) else {
                break; // cur is the unique node at this prefix depth
            };
            if next as usize != cur {
                path.push(next as usize);
                cur = next as usize;
            }
            // if cur's digit differs from the key's at this level, the
            // surrogate has deterministically resolved it; continue
        }
        path
    }

    fn owner_of(&self, key: u64) -> usize {
        // the owner is wherever surrogate routing deterministically
        // lands; routing is independent of the start node because each
        // level's surrogate choice depends only on the shared prefix
        let mut rng = cd_core::rng::seeded(0);
        *self.route(0, key, &mut rng).last().expect("route never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::measure;
    use cd_core::rng::seeded;

    #[test]
    fn routing_is_start_independent() {
        let mut rng = seeded(1);
        let p = Plaxton::new(300, &mut rng);
        for _ in 0..100 {
            let key: u64 = rng.gen();
            let a = *p.route(0, key, &mut rng).last().expect("nonempty");
            let from = rng.gen_range(0..300);
            let b = *p.route(from, key, &mut rng).last().expect("nonempty");
            assert_eq!(a, b, "owner depends on the start");
        }
    }

    #[test]
    fn own_id_routes_to_self() {
        let mut rng = seeded(2);
        let p = Plaxton::new(100, &mut rng);
        for v in 0..100 {
            assert_eq!(p.owner_of(p.ids[v]), v);
        }
    }

    #[test]
    fn path_is_log_base_16() {
        let mut rng = seeded(3);
        let n = 1024usize;
        let p = Plaxton::new(n, &mut rng);
        let r = measure(&p, 1500, 4);
        // log₁₆ 1024 = 2.5; each hop fixes ≥ 1 digit ⇒ mean ≈ 2-4
        assert!(r.path.mean <= 5.0, "mean path {}", r.path.mean);
        assert!(r.path.max <= 8.0, "max path {}", r.path.max);
    }

    #[test]
    fn linkage_is_radix_times_levels() {
        let mut rng = seeded(5);
        let n = 1024usize;
        let p = Plaxton::new(n, &mut rng);
        let r = measure(&p, 300, 6);
        // ≈ (2^b − 1)·log_{2^b} n = 15 · 2.5 ≈ 38
        assert!(r.max_degree >= 15 && r.max_degree <= 90, "max degree {}", r.max_degree);
    }
}
