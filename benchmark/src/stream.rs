//! The generated inputs: the foreground op stream, the churn
//! schedule and the values. Everything here is a pure function of the
//! seed and is produced outside the timed regions — the store under
//! test only ever sees the generated `(kind, key, origin, value)`.

use cd_core::rng::{seeded, splitmix64, subseed};
use rand::rngs::StdRng;
use rand::Rng;

/// One foreground operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// A `put` (overwrite with the key's next generation) or a `get`.
    pub put: bool,
    /// The key, in `0..keys`.
    pub key: u32,
    /// Picks the origin server: index `origin % live.len()` of the
    /// live list at the time the op runs (membership moves under
    /// churn, so the stream cannot name a server directly).
    pub origin: u32,
}

/// One churn event's random choices (resolved against the live list
/// when the event runs, like [`Op::origin`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnDraw {
    /// Picks the leaver, or the host a joiner enters through.
    pub node: u32,
    /// The joiner's identifier point.
    pub point: u64,
}

/// Key popularity.
#[derive(Clone, Debug)]
pub enum Keys {
    /// Every key equally likely: no key is cache-resident for long.
    Uniform(u32),
    /// Zipf with exponent 1 over ranks `1..=n` (key = rank − 1), as a
    /// cumulative-weight table searched by bisection.
    Zipf(Vec<f64>),
}

impl Keys {
    /// The Zipf(s = 1) table over `n` keys.
    pub fn zipf(n: usize) -> Keys {
        let mut total = 0.0f64;
        Keys::Zipf(
            (1..=n)
                .map(|rank| {
                    total += 1.0 / rank as f64;
                    total
                })
                .collect(),
        )
    }

    fn draw(&self, rng: &mut StdRng) -> u32 {
        match self {
            Keys::Uniform(n) => rng.gen_range(0..*n),
            Keys::Zipf(cum) => {
                let u = rng.gen::<f64>() * cum[cum.len() - 1];
                cum.partition_point(|&c| c < u).min(cum.len() - 1) as u32
            }
        }
    }
}

/// The foreground stream generator.
pub struct OpGen {
    rng: StdRng,
    keys: Keys,
    put_pct: u32,
}

impl OpGen {
    /// The stream of `seed`: `put_pct` % puts over `keys`.
    pub fn new(seed: u64, keys: Keys, put_pct: u32) -> OpGen {
        OpGen {
            rng: seeded(subseed(seed, 0x0F5)),
            keys,
            put_pct,
        }
    }

    /// Append the next `n` ops of the stream to `out`.
    pub fn extend(&mut self, out: &mut Vec<Op>, n: usize) {
        out.extend((0..n).map(|_| Op {
            put: self.rng.gen_range(0..100u32) < self.put_pct,
            key: self.keys.draw(&mut self.rng),
            origin: self.rng.gen(),
        }));
    }
}

/// The churn schedule generator (its own stream, so adding churn to a
/// workload never perturbs the foreground ops).
pub struct ChurnGen(StdRng);

impl ChurnGen {
    /// The churn schedule of `seed`.
    pub fn new(seed: u64) -> ChurnGen {
        ChurnGen(seeded(subseed(seed, 0xC4)))
    }

    /// The next event's draws.
    pub fn next(&mut self) -> ChurnDraw {
        ChurnDraw {
            node: self.0.gen(),
            point: self.0.gen(),
        }
    }
}

/// Write generation `gen` of `key`'s value into `buf` (resized to
/// `len`): pseudo-random bytes, so neither the coder nor the
/// comparison can shortcut on structure, and two generations of one
/// key differ in almost every byte.
pub fn fill_value(buf: &mut Vec<u8>, seed: u64, key: u32, gen: u32, len: usize) {
    buf.clear();
    let mut x = subseed(seed ^ 0x7A1, (u64::from(key) << 32) | u64::from(gen));
    while buf.len() < len {
        x = splitmix64(x);
        let word = x.to_le_bytes();
        let take = (len - buf.len()).min(8);
        buf.extend_from_slice(&word[..take]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, keys: Keys, n: usize) -> Vec<Op> {
        let mut out = Vec::new();
        // in two uneven pieces: chunking must not change the stream
        let mut g = OpGen::new(seed, keys, 30);
        g.extend(&mut out, n / 3);
        g.extend(&mut out, n - n / 3);
        out
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = take(1, Keys::Uniform(1000), 5000);
        let mut b = Vec::new();
        OpGen::new(1, Keys::Uniform(1000), 30).extend(&mut b, 5000);
        assert_eq!(
            a, b,
            "the stream is a function of the seed, not of chunking"
        );
        let c = take(2, Keys::Uniform(1000), 5000);
        assert_ne!(a, c);
        let puts = a.iter().filter(|o| o.put).count();
        assert!((1300..1700).contains(&puts), "{puts} puts of 5000 at 30 %");
        assert!(a.iter().all(|o| o.key < 1000));
        let (x, y) = (ChurnGen::new(1).next(), ChurnGen::new(1).next());
        assert_eq!(x, y);
        assert_ne!(x, ChurnGen::new(2).next());
    }

    #[test]
    fn zipf_mass_follows_one_over_rank() {
        let n = 1000usize;
        let ops = take(7, Keys::zipf(n), 200_000);
        let mut hits = vec![0u32; n];
        for o in &ops {
            hits[o.key as usize] += 1;
        }
        let h_n: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let share = |k: usize| f64::from(hits[k]) / ops.len() as f64;
        // rank 1 carries 1/H_n of the mass, rank 10 a tenth of that
        assert!(
            (share(0) - 1.0 / h_n).abs() < 0.01,
            "rank-1 share {}",
            share(0)
        );
        assert!(
            (share(9) - 0.1 / h_n).abs() < 0.004,
            "rank-10 share {}",
            share(9)
        );
        let head: f64 = (0..100).map(share).sum();
        let want: f64 = (1..=100).map(|r| 1.0 / r as f64).sum::<f64>() / h_n;
        assert!((head - want).abs() < 0.01, "top-100 mass {head} vs {want}");
    }

    #[test]
    fn values_are_deterministic_and_generation_distinct() {
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        fill_value(&mut a, 1, 5, 0, 1021);
        fill_value(&mut b, 1, 5, 0, 1021);
        fill_value(&mut c, 1, 5, 1, 1021);
        assert_eq!(a.len(), 1021);
        assert_eq!(a, b);
        let same = a.iter().zip(&c).filter(|(x, y)| x == y).count();
        assert!(same < 40, "{same} of 1021 bytes survive a generation bump");
    }
}
