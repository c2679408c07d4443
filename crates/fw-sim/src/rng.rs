//! Self-contained deterministic PRNGs.
//!
//! The chip-level accelerator contains a hardware random number generator
//! (Figure 3, step ③); the simulator needs one that is fast, seedable and
//! identical across platforms so every experiment replays from a single
//! `u64` seed. We implement SplitMix64 (for seeding and cheap streams) and
//! xoshiro256++ (the workhorse generator) from their reference definitions
//! rather than pulling in `rand`, keeping the hot walk-update path free of
//! trait dispatch.

/// Derive an independent child seed for a named subsystem stream.
///
/// Subsystems that need their own randomness (e.g. the fault injector)
/// must not share the walk RNG's sequence — drawing from it would change
/// walk paths whenever the subsystem is toggled. Instead they derive a
/// child seed that is a pure function of `(seed, stream)`: deterministic
/// across runs, distinct per stream tag, and decorrelated from
/// `Xoshiro256pp::new(seed)` itself.
pub fn derive_stream_seed(seed: u64, stream: u64) -> u64 {
    let mut sm = SplitMix64::new(seed ^ stream.rotate_left(32));
    // Burn one output so stream 0 is not the identity permutation on the
    // seed, then take the next as the child seed.
    sm.next_u64();
    sm.next_u64()
}

/// SplitMix64: tiny, fast, passes BigCrush; ideal for seeding and for
/// deriving independent streams from one master seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the recommended general-purpose generator from the
/// xoshiro family (Blackman & Vigna). 256-bit state, period 2^256 − 1.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed via SplitMix64, as the xoshiro authors recommend, guaranteeing
    /// a non-zero state for any seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift method
    /// (unbiased, no modulo in the common case). This is the operation the
    /// chip-level ALU performs to turn `rnd0` into `rnd1 ∈ [0, outDegree)`.
    ///
    /// # Panics
    /// In debug builds, panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Derive an independent child stream (used to give every chip-level
    /// accelerator its own generator).
    pub fn fork(&mut self) -> Xoshiro256pp {
        Xoshiro256pp::new(self.next_u64())
    }

    /// Jump ahead 2^128 steps in the sequence, in O(1) draws.
    ///
    /// This is the Blackman–Vigna jump function for xoshiro256++: the
    /// state transition is linear over GF(2) (the `++` scrambler only
    /// touches the *output*), so advancing 2^128 steps is multiplication
    /// by a precomputed characteristic polynomial. `n` generators obtained
    /// by repeated jumps from one seed own provably non-overlapping
    /// 2^128-long subsequences of the single period-(2^256 − 1) orbit —
    /// the substrate for per-lane walk RNG streams.
    ///
    /// The `JUMP` constants are the reference implementation's; the test
    /// suite independently verifies them by raising the 256×256 GF(2)
    /// transition matrix to the 2^128-th power.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180ec6d33cfd0aba,
            0xd5a61266f0c9392c,
            0xa9582618e03fc9aa,
            0x39abdc4529b1661c,
        ];
        let mut s = [0u64; 4];
        for word in JUMP {
            for bit in 0..64 {
                if word & (1u64 << bit) != 0 {
                    s[0] ^= self.s[0];
                    s[1] ^= self.s[1];
                    s[2] ^= self.s[2];
                    s[3] ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = s;
    }

    /// Advance the stream by exactly `n` draws, as if `next_u64` had been
    /// called `n` times, in O(log n) 256×256 GF(2) matrix products.
    ///
    /// Callers that advance many states by the same distance should build
    /// [`Gf2Mat::step_pow`] once and use [`Xoshiro256pp::transform`].
    pub fn advance(&mut self, n: u64) {
        self.transform(&Gf2Mat::step_pow(n));
    }

    /// Replace the state `s` with `m · s`. With `m = Gf2Mat::step_pow(n)`
    /// this is an `n`-draw advance.
    pub fn transform(&mut self, m: &Gf2Mat) {
        self.s = m.mat_vec(self.s);
    }
}

/// One step of the xoshiro256 *state* transition (the `++` output
/// scrambler is not part of the state map): the linear map that
/// [`Gf2Mat::step`] encodes. It repeats `next_u64`'s state update, which
/// stays hand-inlined on the hot path; `step_matrix_is_one_draw` checks
/// that the two agree.
fn step_state(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

/// A 256×256 matrix over GF(2) acting on xoshiro256 states.
///
/// Column-major: `cols[j]` is the image of basis vector `e_j`, itself a
/// 256-bit vector packed as `[u64; 4]` in the generator's state layout.
/// The state transition is linear over GF(2), so `T^n` (built by
/// [`Gf2Mat::step_pow`]) maps any state to the state `n` draws later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gf2Mat {
    cols: Vec<[u64; 4]>,
}

impl Gf2Mat {
    /// The identity map.
    pub(crate) fn identity() -> Self {
        Gf2Mat {
            cols: (0..256).map(unit).collect(),
        }
    }

    /// `T`, the one-draw state transition.
    pub(crate) fn step() -> Self {
        Gf2Mat {
            cols: (0..256)
                .map(|j| {
                    let mut e = unit(j);
                    step_state(&mut e);
                    e
                })
                .collect(),
        }
    }

    /// `T^n` by square-and-multiply: at most 2·64 matrix products.
    pub fn step_pow(mut n: u64) -> Self {
        let mut acc = Gf2Mat::identity();
        let mut pow = Gf2Mat::step();
        while n > 0 {
            if n & 1 == 1 {
                acc = pow.mul(&acc);
            }
            n >>= 1;
            if n > 0 {
                pow = pow.mul(&pow);
            }
        }
        acc
    }

    /// `self · v`: the XOR of the columns selected by `v`'s set bits.
    pub(crate) fn mat_vec(&self, v: [u64; 4]) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (j, col) in self.cols.iter().enumerate() {
            let mask = 0u64.wrapping_sub((v[j / 64] >> (j % 64)) & 1);
            for w in 0..4 {
                out[w] ^= col[w] & mask;
            }
        }
        out
    }

    /// The composition `self · rhs` (apply `rhs` first).
    pub(crate) fn mul(&self, rhs: &Gf2Mat) -> Gf2Mat {
        Gf2Mat {
            cols: rhs.cols.iter().map(|&c| self.mat_vec(c)).collect(),
        }
    }
}

/// Basis vector `e_j` in the packed state layout.
fn unit(j: usize) -> [u64; 4] {
    let mut e = [0u64; 4];
    e[j / 64] |= 1u64 << (j % 64);
    e
}

/// Stream tag for the per-lane walk-sampling base generator (see
/// [`LaneRngs`]): keeps the lane streams decorrelated from the engines'
/// root RNG, which still owns barrier-phase draws (initial walk
/// distribution, quiesce decisions) in both models.
pub const WALK_LANE_STREAM: u64 = 0x57A1C;

/// Which RNG universe a simulation samples walks from.
///
/// `Global` (the default) serializes every walk-sampling decision through
/// one generator — the reference universe, byte-identical to every record
/// produced before this type existed. `Sharded` gives each commit lane its
/// own jump-separated stream ([`LaneRngs`]), a deliberate model change
/// that lets lanes commit walk steps independently within a sync window;
/// its outputs are statistically (not bitwise) equivalent to `Global` and
/// byte-reproducible for a fixed seed at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RngModel {
    /// One global walk RNG; the sampled-path universe of every pre-sharded
    /// record.
    #[default]
    Global,
    /// Per-lane jump-separated walk RNG streams keyed by `(seed, lane)`.
    Sharded,
}

impl RngModel {
    /// Parse a CLI/env spelling (`"global"` / `"sharded"`).
    pub fn parse(s: &str) -> Option<RngModel> {
        match s {
            "global" => Some(RngModel::Global),
            "sharded" => Some(RngModel::Sharded),
            _ => None,
        }
    }

    /// Canonical spelling, the inverse of [`RngModel::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            RngModel::Global => "global",
            RngModel::Sharded => "sharded",
        }
    }

    /// True for [`RngModel::Sharded`].
    #[inline]
    pub fn is_sharded(self) -> bool {
        matches!(self, RngModel::Sharded)
    }
}

/// A family of jump-separated walk RNG streams, one per commit lane.
///
/// All lanes live on a single base generator seeded from
/// `derive_stream_seed(seed, WALK_LANE_STREAM)`: lane `i` is the base
/// jumped ahead `i · 2^128` steps, so lane `i + 1` is one
/// [`Xoshiro256pp::jump`] past lane `i` — construction is O(lanes), not
/// O(lanes²) — and any two lanes' next 2^128 outputs come from disjoint
/// stretches of the orbit. The family grows on demand and the stream a
/// lane index yields never depends on the order lanes were first touched,
/// so engines may key lanes by sparse ids (e.g. graph blocks).
#[derive(Debug, Clone)]
pub struct LaneRngs {
    lanes: Vec<Xoshiro256pp>,
    /// The `lanes.len()`-th stream, pre-jumped, ready to append.
    next: Xoshiro256pp,
}

impl LaneRngs {
    /// A family over `(seed, lane)` with `lanes` streams materialized.
    pub fn new(seed: u64, lanes: usize) -> Self {
        let mut family = LaneRngs {
            lanes: Vec::with_capacity(lanes),
            next: Xoshiro256pp::new(derive_stream_seed(seed, WALK_LANE_STREAM)),
        };
        family.ensure(lanes);
        family
    }

    /// Materialize streams up to lane `n - 1` (no-op if already there).
    pub fn ensure(&mut self, n: usize) {
        while self.lanes.len() < n {
            let lane = self.next.clone();
            self.next.jump();
            self.lanes.push(lane);
        }
    }

    /// Number of materialized lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True when no lane has been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Mutable access to lane `i`'s generator, materializing it if needed.
    #[inline]
    pub fn lane(&mut self, i: usize) -> &mut Xoshiro256pp {
        if i >= self.lanes.len() {
            self.ensure(i + 1);
        }
        &mut self.lanes[i]
    }

    /// Move lane `i`'s generator out (for borrow-free use inside a batch
    /// body); pair with [`LaneRngs::put`]. The slot is left holding a
    /// placeholder — taking the same lane twice without a `put` is a bug.
    pub fn take(&mut self, i: usize) -> Xoshiro256pp {
        self.ensure(i + 1);
        std::mem::replace(&mut self.lanes[i], Xoshiro256pp::new(0))
    }

    /// Restore lane `i`'s generator after a [`LaneRngs::take`].
    pub fn put(&mut self, i: usize, rng: Xoshiro256pp) {
        self.lanes[i] = rng;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public SplitMix64
        // reference implementation.
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::new(42);
        let mut b = Xoshiro256pp::new(42);
        let mut c = Xoshiro256pp::new(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn next_below_stays_in_range_and_hits_all_values() {
        let mut g = Xoshiro256pp::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = g.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut g = Xoshiro256pp::new(99);
        let n = 100_000;
        let k = 8u64;
        let mut counts = [0u32; 8];
        for _ in 0..n {
            counts[g.next_below(k) as usize] += 1;
        }
        let expect = n as f64 / k as f64;
        for c in counts {
            // within 5% of expectation at n=100k — loose but catches bias bugs
            assert!((c as f64 - expect).abs() < expect * 0.05, "{counts:?}");
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = Xoshiro256pp::new(3);
        for _ in 0..10_000 {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn derived_streams_are_deterministic_and_distinct() {
        let a = derive_stream_seed(42, 1);
        assert_eq!(a, derive_stream_seed(42, 1), "pure function of inputs");
        assert_ne!(a, derive_stream_seed(42, 2), "distinct per stream tag");
        assert_ne!(a, derive_stream_seed(43, 1), "distinct per seed");
        assert_ne!(derive_stream_seed(42, 0), 42, "stream 0 not identity");
    }

    #[test]
    fn forked_streams_differ() {
        let mut g = Xoshiro256pp::new(5);
        let mut f1 = g.fork();
        let mut f2 = g.fork();
        let a: Vec<u64> = (0..4).map(|_| f1.next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|_| f2.next_u64()).collect();
        assert_ne!(a, b);
    }

    /// Independent verification of the JUMP polynomial: the state after
    /// `jump()` must equal the state advanced 2^128 single steps, computed
    /// as T^(2^128)·s via 128 squarings of the GF(2) transition matrix.
    /// The matrix is built from `step_state` alone, so this would catch a
    /// transcription error in either the constants or the jump loop.
    #[test]
    fn jump_matches_gf2_transition_matrix_power() {
        let mut t = Gf2Mat::step();
        for _ in 0..128 {
            t = t.mul(&t);
        }
        for seed in [0xDEAD_BEEFu64, 42, 7] {
            let mut g = Xoshiro256pp::new(seed);
            // Advance a few draws so the jump starts mid-stream.
            for _ in 0..5 {
                g.next_u64();
            }
            let expect = t.mat_vec(g.s);
            g.jump();
            assert_eq!(g.s, expect, "seed {seed}: jump() is not T^(2^128)");
        }
    }

    /// The state matrix must agree with the generator's own step, or every
    /// matrix-derived advance (and the jump check above) is meaningless.
    #[test]
    fn step_matrix_is_one_draw() {
        let mut g = Xoshiro256pp::new(9);
        let expect = Gf2Mat::step().mat_vec(g.s);
        g.next_u64();
        assert_eq!(g.s, expect);
        assert_eq!(Gf2Mat::step_pow(0), Gf2Mat::identity());
        assert_eq!(Gf2Mat::step_pow(1), Gf2Mat::step());
    }

    #[test]
    fn advance_equals_repeated_draws() {
        for n in [0u64, 1, 63, 64, 65, 5 * 17 * (1 << 16)] {
            let mut stepped = Xoshiro256pp::new(42);
            for _ in 0..n {
                stepped.next_u64();
            }
            let mut jumped = Xoshiro256pp::new(42);
            jumped.advance(n);
            assert_eq!(jumped.s, stepped.s, "advance({n}) != {n} draws");
            assert_eq!(jumped.next_u64(), stepped.next_u64());
        }
    }

    #[test]
    fn advances_compose_additively() {
        for (a, b) in [
            (0u64, 7u64),
            (1, 1),
            (1000, 24_001),
            (1 << 40, (1 << 40) + 3),
        ] {
            let mut split = Xoshiro256pp::new(7);
            split.advance(a);
            split.advance(b);
            let mut whole = Xoshiro256pp::new(7);
            whole.advance(a + b);
            assert_eq!(split.s, whole.s, "advance({a}) + advance({b})");
        }
        // `transform` with a prebuilt power is the same advance.
        let mut via_mat = Xoshiro256pp::new(7);
        via_mat.transform(&Gf2Mat::step_pow(5 * 13));
        let mut direct = Xoshiro256pp::new(7);
        direct.advance(65);
        assert_eq!(via_mat.s, direct.s);
    }

    #[test]
    fn jump_is_deterministic_and_moves_the_stream() {
        let mut a = Xoshiro256pp::new(42);
        let mut b = Xoshiro256pp::new(42);
        let pre: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        b.jump();
        let post: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(pre, post, "jump must land elsewhere in the orbit");
        let mut c = Xoshiro256pp::new(42);
        c.jump();
        let post2: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(post, post2, "jump is deterministic");
    }

    /// Stream-overlap smoke test: the first 10k draws of adjacent lanes
    /// must share no 4-gram window. (Lanes are 2^128 draws apart, so any
    /// shared 4-gram would be an astronomically unlikely collision — or a
    /// broken jump.)
    #[test]
    fn adjacent_lane_streams_share_no_4gram_window() {
        let mut lanes = LaneRngs::new(42, 3);
        let draws = |r: &mut Xoshiro256pp| (0..10_000).map(|_| r.next_u64()).collect::<Vec<u64>>();
        let a = draws(lanes.lane(0));
        let b = draws(lanes.lane(1));
        let c = draws(lanes.lane(2));
        let grams = |v: &[u64]| {
            v.windows(4)
                .map(|w| [w[0], w[1], w[2], w[3]])
                .collect::<std::collections::HashSet<[u64; 4]>>()
        };
        let (ga, gb, gc) = (grams(&a), grams(&b), grams(&c));
        assert!(ga.is_disjoint(&gb), "lanes 0 and 1 share a 4-gram window");
        assert!(gb.is_disjoint(&gc), "lanes 1 and 2 share a 4-gram window");
        assert!(ga.is_disjoint(&gc), "lanes 0 and 2 share a 4-gram window");
    }

    #[test]
    fn lane_rngs_grow_on_demand_order_independently() {
        // The stream behind lane i is a pure function of (seed, i):
        // materializing lanes eagerly, lazily, or out of order yields the
        // same generators.
        let mut eager = LaneRngs::new(7, 5);
        let mut lazy = LaneRngs::new(7, 0);
        let lazy4: Vec<u64> = (0..8).map(|_| lazy.lane(4).next_u64()).collect();
        let eager4: Vec<u64> = (0..8).map(|_| eager.lane(4).next_u64()).collect();
        assert_eq!(lazy4, eager4);
        let lazy1: Vec<u64> = (0..8).map(|_| lazy.lane(1).next_u64()).collect();
        let eager1: Vec<u64> = (0..8).map(|_| eager.lane(1).next_u64()).collect();
        assert_eq!(lazy1, eager1);
        assert_eq!(eager.len(), 5);
        assert_eq!(lazy.len(), 5, "lane(4) materialized lanes 0..=4");
    }

    #[test]
    fn lane_rngs_lane_i_is_base_jumped_i_times() {
        let mut family = LaneRngs::new(11, 3);
        let mut direct = Xoshiro256pp::new(derive_stream_seed(11, WALK_LANE_STREAM));
        direct.jump();
        direct.jump();
        let want: Vec<u64> = (0..8).map(|_| direct.next_u64()).collect();
        let got: Vec<u64> = (0..8).map(|_| family.lane(2).next_u64()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn lane_rngs_take_put_round_trips() {
        let mut family = LaneRngs::new(3, 2);
        let reference: Vec<u64> = {
            let mut probe = LaneRngs::new(3, 2);
            (0..6).map(|_| probe.lane(1).next_u64()).collect()
        };
        let mut taken = family.take(1);
        let first: Vec<u64> = (0..3).map(|_| taken.next_u64()).collect();
        family.put(1, taken);
        let rest: Vec<u64> = (0..3).map(|_| family.lane(1).next_u64()).collect();
        let combined: Vec<u64> = first.into_iter().chain(rest).collect();
        assert_eq!(combined, reference, "take/put must not disturb the stream");
    }

    #[test]
    fn rng_model_parses_its_canonical_spellings() {
        assert_eq!(RngModel::parse("global"), Some(RngModel::Global));
        assert_eq!(RngModel::parse("sharded"), Some(RngModel::Sharded));
        assert_eq!(RngModel::parse("Sharded"), None, "spellings are exact");
        assert_eq!(RngModel::parse(""), None);
        for m in [RngModel::Global, RngModel::Sharded] {
            assert_eq!(RngModel::parse(m.as_str()), Some(m), "parse inverts as_str");
        }
        assert_eq!(RngModel::default(), RngModel::Global);
        assert!(RngModel::Sharded.is_sharded());
        assert!(!RngModel::Global.is_sharded());
    }
}
