//! Property tests pinning the batched randomness plane to its scalar
//! counterpart (the batch contract of `parcolor_local::tape` and
//! `parcolor_prg::hashing`).
//!
//! For every tape type — `CryptoTape`, `PrgTape` under both chunk
//! assignments, and the test-local `ForceScalar` adapter running the trait
//! defaults —
//! the batched `fill_words` / `fill_words_seq` / `fill_below` /
//! `fill_bernoulli` must equal the scalar `word` / `below` / `bernoulli`
//! calls element-for-element, over random node stripes and explicitly at
//! every lane-boundary size (0, 1, lane−1, lane, lane+1).  Likewise
//! `KWiseHash::eval_batch` must equal `eval` for every independence
//! `k ∈ 1..=4`.

use parcolor_local::simd::{lane_eq_mask8, splitmix4, SPLITMIX_LANES};
use parcolor_local::tape::{splitmix64, CryptoTape, Randomness, MIX_LANES};
use parcolor_prg::hashing::KWiseFamily;
use parcolor_prg::{ChunkAssignment, Prg, PrgTape};
use proptest::prelude::*;

/// Oracle adapter forcing the scalar default batch methods of an inner
/// tape: only [`Randomness::word`] is forwarded, so every `fill_*` call
/// runs the trait defaults over the inner scalar mixer.
struct ForceScalar<R>(R);

impl<R: Randomness> Randomness for ForceScalar<R> {
    fn word(&self, node: u32, stream: u64, idx: u32) -> u64 {
        self.0.word(node, stream, idx)
    }
}

#[test]
fn force_scalar_is_transparent() {
    let t = CryptoTape::new(17);
    let s = ForceScalar(CryptoTape::new(17));
    let nodes: Vec<u32> = (0..MIX_LANES as u32 + 1).collect();
    let mut a = vec![0u64; nodes.len()];
    let mut b = vec![0u64; nodes.len()];
    t.fill_words(5, &nodes, 2, &mut a);
    s.fill_words(5, &nodes, 2, &mut b);
    assert_eq!(a, b);
}

/// Stripe lengths every property probes: the lane boundaries plus the
/// full random stripe.
fn probe_sizes(full: usize) -> Vec<usize> {
    let mut sizes = vec![0, 1, MIX_LANES - 1, MIX_LANES, MIX_LANES + 1, full];
    sizes.retain(|&s| s <= full);
    sizes
}

/// Assert all four batch methods equal their scalar counterparts on a
/// prefix stripe of `nodes`.
fn assert_batch_matches_scalar(
    tape: &dyn Randomness,
    nodes: &[u32],
    stream: u64,
    idx: u32,
    p: f64,
) {
    for len in probe_sizes(nodes.len()) {
        let stripe = &nodes[..len];
        let bounds: Vec<u64> = stripe.iter().map(|&v| (v as u64 % 23) + 1).collect();
        let mut words = vec![0u64; len];
        tape.fill_words(stream, stripe, idx, &mut words);
        let mut below = vec![0u64; len];
        tape.fill_below(stream, stripe, idx, &bounds, &mut below);
        let mut bern = vec![false; len];
        tape.fill_bernoulli(stream, stripe, idx, p, &mut bern);
        for (i, &v) in stripe.iter().enumerate() {
            prop_assert_eq!(
                words[i],
                tape.word(v, stream, idx),
                "words len {} lane {}",
                len,
                i
            );
            prop_assert_eq!(below[i], tape.below(v, stream, idx, bounds[i]));
            prop_assert_eq!(bern[i], tape.bernoulli(v, stream, idx, p));
        }
        if len > 0 {
            let mut seq = vec![0u64; len];
            tape.fill_words_seq(stripe[0], stream, idx, &mut seq);
            for (i, &w) in seq.iter().enumerate() {
                prop_assert_eq!(w, tape.word(stripe[0], stream, idx.wrapping_add(i as u32)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn crypto_tape_batches_match_scalar(
        key in any::<u64>(),
        stream in any::<u64>(),
        idx in 0u32..10_000,
        nodes in proptest::collection::vec(0u32..512, (3 * MIX_LANES)..(4 * MIX_LANES)),
        p in 0.0f64..1.0,
    ) {
        let tape = CryptoTape::new(key);
        assert_batch_matches_scalar(&tape, &nodes, stream, idx, p);
        // The ForceScalar adapter (trait defaults over the scalar mixer)
        // must agree with the lane overrides word-for-word.
        let forced = ForceScalar(CryptoTape::new(key));
        let mut lanes = vec![0u64; nodes.len()];
        let mut scalar = vec![0u64; nodes.len()];
        tape.fill_words(stream, &nodes, idx, &mut lanes);
        forced.fill_words(stream, &nodes, idx, &mut scalar);
        prop_assert_eq!(lanes, scalar);
    }

    #[test]
    fn prg_tape_batches_match_scalar(
        seed in 0u64..4096,
        stream in any::<u64>(),
        idx in 0u32..10_000,
        nodes in proptest::collection::vec(0u32..512, (3 * MIX_LANES)..(4 * MIX_LANES)),
        p in 0.0f64..1.0,
    ) {
        let prg = Prg::new(12);
        let per_node = ChunkAssignment::PerNode;
        let coloring = ChunkAssignment::PowerColoring {
            colors: (0..512u32).map(|v| v % 13).collect(),
        };
        for chunks in [&per_node, &coloring] {
            let tape = PrgTape::new(prg, seed, chunks);
            assert_batch_matches_scalar(&tape, &nodes, stream, idx, p);
            let forced = ForceScalar(PrgTape::new(prg, seed, chunks));
            let mut lanes = vec![0u64; nodes.len()];
            let mut scalar = vec![0u64; nodes.len()];
            tape.fill_words(stream, &nodes, idx, &mut lanes);
            forced.fill_words(stream, &nodes, idx, &mut scalar);
            prop_assert_eq!(lanes, scalar);
        }
    }

    // The dispatched SIMD kernels (whichever path runtime detection or
    // `PARCOLOR_SIMD` selected) must be bit-identical to the scalar
    // mixer/compare they replace — the selection is invisible to callers.
    // Per-path coverage lives in tests/simd_dispatch_equivalence.rs.
    #[test]
    fn simd_kernels_match_scalar(
        zs in proptest::collection::vec(any::<u64>(), SPLITMIX_LANES),
        a in proptest::collection::vec(any::<u32>(), 8),
        flip in 0usize..8,
    ) {
        let z: [u64; SPLITMIX_LANES] = [zs[0], zs[1], zs[2], zs[3]];
        let got = splitmix4(z);
        for l in 0..SPLITMIX_LANES {
            prop_assert_eq!(got[l], splitmix64(z[l]), "lane {}", l);
        }
        let row: [u32; 8] = std::array::from_fn(|i| a[i]);
        let mut other = row;
        other[flip] = other[flip].wrapping_add(1);
        let eq = lane_eq_mask8(&row, &other);
        for s in 0..8 {
            prop_assert_eq!(eq >> s & 1 == 1, row[s] == other[s], "lane {}", s);
        }
        prop_assert_eq!(lane_eq_mask8(&row, &row), 0xFF);
    }

    #[test]
    fn kwise_eval_batch_matches_scalar(
        k in 1u32..5,
        seed in any::<u64>(),
        range in 1u64..100_000,
        xs in proptest::collection::vec(any::<u64>(), (3 * MIX_LANES)..(4 * MIX_LANES)),
    ) {
        let fam = KWiseFamily::new(k, range);
        let h = fam.member(seed);
        for len in probe_sizes(xs.len()) {
            let stripe = &xs[..len];
            let mut out = vec![0u64; len];
            h.eval_batch(stripe, &mut out);
            for (i, &x) in stripe.iter().enumerate() {
                prop_assert_eq!(out[i], h.eval(x), "k {} len {} lane {}", k, len, i);
            }
        }
    }
}
