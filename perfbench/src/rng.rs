//! Seeded generators: every input the benchmark hands the program comes
//! from here, so one seed always yields the same inputs.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// A generator for stream `stream` of `seed` (one per client).
    pub fn stream(seed: u64, stream: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Request classes of the `serve-mix` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// A repeat of one fixed structure: template-cache reads.
    Hot,
    /// A batch of never-seen sweep points: misses, integrals, inserts.
    Sweep,
    /// A piecewise-constant FMM or pFFT solve: no templates at all.
    Krylov,
}

impl OpClass {
    /// Every class, in report order.
    pub const ALL: [OpClass; 3] = [OpClass::Hot, OpClass::Sweep, OpClass::Krylov];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Hot => "hot",
            OpClass::Sweep => "sweep",
            OpClass::Krylov => "krylov",
        }
    }
}

/// One block of the class sequence: 6 hot, 3 sweep, 1 krylov.
pub const CLASS_BLOCK: [OpClass; 10] = [
    OpClass::Hot,
    OpClass::Hot,
    OpClass::Hot,
    OpClass::Hot,
    OpClass::Hot,
    OpClass::Hot,
    OpClass::Sweep,
    OpClass::Sweep,
    OpClass::Sweep,
    OpClass::Krylov,
];

/// The first `len` request classes of a seeded stream: a seeded shuffle
/// of each successive [`CLASS_BLOCK`]. The seed sets the order; the class
/// shares are the same for every seed (exact at each block boundary).
pub fn class_sequence(rng: &mut SplitMix64, len: usize) -> Vec<OpClass> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut block = CLASS_BLOCK;
        rng.shuffle(&mut block);
        out.extend(block.iter().copied().take(len - out.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shares(v: &[OpClass]) -> [usize; 3] {
        let mut c = [0; 3];
        for op in v {
            c[OpClass::ALL.iter().position(|x| x == op).unwrap()] += 1;
        }
        c
    }

    #[test]
    fn same_seed_same_ops() {
        let a = class_sequence(&mut SplitMix64::stream(42, 1), 200);
        let b = class_sequence(&mut SplitMix64::stream(42, 1), 200);
        assert_eq!(a, b);
        let mut g = SplitMix64::new(9);
        let mut h = SplitMix64::new(9);
        assert!((0..100).all(|_| g.next_u64() == h.next_u64()));
    }

    #[test]
    fn different_seed_same_class_shares() {
        let a = class_sequence(&mut SplitMix64::stream(1, 0), 500);
        let b = class_sequence(&mut SplitMix64::stream(2, 0), 500);
        assert_ne!(a, b, "the seed must change the order");
        assert_eq!(shares(&a), [300, 150, 50]);
        assert_eq!(shares(&a), shares(&b));
        // Every prefix ending on a block boundary has the exact shares.
        assert_eq!(shares(&b[..30]), [18, 9, 3]);
    }

    #[test]
    fn streams_differ() {
        let a = class_sequence(&mut SplitMix64::stream(5, 0), 50);
        let b = class_sequence(&mut SplitMix64::stream(5, 1), 50);
        assert_ne!(a, b);
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut g = SplitMix64::new(3);
        for _ in 0..1000 {
            let u = g.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(g.below(7) < 7);
        }
    }
}
