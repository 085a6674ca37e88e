//! Pins every output bit of the Tucker decomposition on seeded corpora.
//!
//! The expected hashes were recorded from the build that still ran the
//! mode-1 HOSVD and formed the HOSVD Gram over the full, mostly empty
//! unfolding (`∏ other dims` columns), before either was changed. Skipping
//! the unread mode-1 initialization and dropping the empty columns both
//! claim to leave the result bit-for-bit unchanged; this test holds them
//! to it. A change that moves any bit of the factors, the core, `Λ₂`, the
//! fit, the sweep count or the fit history must update these constants
//! and say why.

use cubelsi::core::{build_tensor, CubeLsiConfig};
use cubelsi::datagen::{generate, GeneratorConfig};
use cubelsi::linalg::Matrix;
use cubelsi::tensor::{tucker_als, TuckerDecomposition};

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for i in 0..m.rows() {
            self.floats(m.row(i));
        }
    }
}

fn decomposition_hash(d: &TuckerDecomposition) -> u64 {
    let mut h = Fnv::new();
    for y in &d.factors {
        h.matrix(y);
    }
    let (j1, j2, j3) = d.core.dims();
    for n in [j1, j2, j3] {
        h.word(n as u64);
    }
    h.matrix(&d.core.unfold(1));
    h.floats(&d.lambda2);
    h.word(d.fit.to_bits());
    h.word(d.iterations as u64);
    h.floats(&d.fit_history);
    h.0
}

fn corpus_decomposition(
    users: usize,
    resources: usize,
    assignments: usize,
    seed: u64,
    config: &CubeLsiConfig,
) -> TuckerDecomposition {
    let ds = generate(&GeneratorConfig {
        users,
        resources,
        concepts: 8,
        assignments,
        seed,
        ..Default::default()
    });
    let tensor = build_tensor(&ds.folksonomy).unwrap();
    let tucker_cfg = config.tucker_config(tensor.dims()).unwrap();
    tucker_als(&tensor, &tucker_cfg).unwrap()
}

#[test]
fn tucker_bits_pinned_explicit_core() {
    // Several HOOI sweeps with a tight tolerance, so the mode-skip logic
    // and the final Λ₂ refresh both run.
    let config = CubeLsiConfig {
        core_dims: Some((6, 8, 5)),
        max_als_iters: 8,
        als_fit_tol: 1e-12,
        seed: 2011,
        ..Default::default()
    };
    let d = corpus_decomposition(90, 70, 6_000, 2011, &config);
    assert_eq!(
        decomposition_hash(&d),
        0x42ef7212e85a62c1,
        "iterations {}",
        d.iterations
    );
}

#[test]
fn tucker_bits_pinned_default_pipeline_config() {
    // The CubeLsi::build path: core dims from reduction ratios, default
    // sweep budget and tolerance.
    let config = CubeLsiConfig {
        reduction_ratios: (12.0, 10.0, 12.0),
        ..Default::default()
    };
    let d = corpus_decomposition(150, 120, 9_000, 77, &config);
    assert_eq!(
        decomposition_hash(&d),
        0xf00edb0a48fa6c0f,
        "iterations {}",
        d.iterations
    );
}
