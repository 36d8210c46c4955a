//! Seeded generators: splitmix64 and a Zipf sampler.

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `(k + 1)^-s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Probability of rank `k`.
    #[cfg(test)]
    pub fn probability(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_for_a_seed() {
        let z = Zipf::new(54, 1.1);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..1000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_frequencies_match_the_distribution() {
        // 200k draws: the standard error of a frequency p is
        // sqrt(p(1-p)/n) <= 0.0012, so a 0.005 absolute tolerance is
        // over four standard errors for every rank.
        let n = 200_000;
        let z = Zipf::new(54, 1.1);
        let mut counts = [0usize; 54];
        let mut rng = Rng::new(42);
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            let observed = c as f64 / n as f64;
            let expected = z.probability(k);
            assert!(
                (observed - expected).abs() < 0.005,
                "rank {k}: observed {observed}, expected {expected}"
            );
        }
        // Rank 0 is the most popular and popularity falls with rank.
        assert!(z.probability(0) > 0.2 && z.probability(0) < 0.3);
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
    }
}
