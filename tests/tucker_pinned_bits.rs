//! Pins every output bit of the Tucker decomposition on seeded corpora,
//! and of the sparse `truncated_svd` solves the build relies on.
//!
//! The Tucker hashes were recorded when every solve moved to the smaller
//! side of its matrix: HOOI updates iterate on the explicit `WᵀW` (or
//! `WWᵀ`) Gram, and a tall HOSVD unfolding on its column-side Gram. That
//! change moves bits by design; on these corpora the fit and `Λ₂` moved
//! in the last one or two ulps and the sweep counts stayed at 8. The two
//! sparse hashes were recorded on the build before that change, from the
//! solves whose iteration side and operator did not change (the two
//! sparse–dense products then, the fused apply on `A` or on `Aᵀ` now), so
//! they hold the sparse path to bit identity. A change that moves any bit
//! of the factors, the core, `Λ₂`, the fit, the sweep count or the fit
//! history must update these constants and say why.

use cubelsi::core::{build_tensor, CubeLsiConfig};
use cubelsi::datagen::{generate, GeneratorConfig};
use cubelsi::folksonomy::Folksonomy;
use cubelsi::linalg::subspace::SubspaceOptions;
use cubelsi::linalg::{truncated_svd, CsrMatrix, Matrix, Svd};
use cubelsi::tensor::{tucker_als, SparseTensor3, TuckerDecomposition};

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

fn svd_hash(svd: &Svd) -> u64 {
    let mut h = Fnv::new();
    h.matrix(&svd.u);
    h.floats(&svd.singular_values);
    h.matrix(&svd.v);
    h.0
}

fn corpus(users: usize, resources: usize, assignments: usize, seed: u64) -> Folksonomy {
    generate(&GeneratorConfig {
        users,
        resources,
        concepts: 8,
        assignments,
        seed,
        ..Default::default()
    })
    .folksonomy
}

fn corpus_tensor(users: usize, resources: usize, assignments: usize, seed: u64) -> SparseTensor3 {
    build_tensor(&corpus(users, resources, assignments, seed)).unwrap()
}

fn corpus_decomposition(
    users: usize,
    resources: usize,
    assignments: usize,
    seed: u64,
    config: &CubeLsiConfig,
) -> TuckerDecomposition {
    let tensor = corpus_tensor(users, resources, assignments, seed);
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
        0xb64617955718de80,
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
        0xa6d2ae6cf4a27d02,
        "iterations {}",
        d.iterations
    );
}

#[test]
fn sparse_svd_bits_pinned_lsi_tag_resource_matrix() {
    // The LSI baseline's solve: the user-aggregated tag x resource matrix
    // at rank |T|/10 with the baseline's seed derivation.
    let f = corpus(150, 120, 9_000, 77);
    let (t, r) = (f.num_tags(), f.num_resources());
    let matrix = CsrMatrix::from_triples(t, r, &f.tag_resource_triples()).unwrap();
    let opts = SubspaceOptions {
        seed: 0x151 ^ 0x51d,
        ..Default::default()
    };
    let svd = truncated_svd(&matrix, t / 10, &opts).unwrap();
    assert_eq!(svd_hash(&svd), 0xbef789e78e8abeac, "shape {t}x{r}");
}

#[test]
fn sparse_svd_bits_pinned_hosvd_tag_mode() {
    // A HOSVD solve whose unfolding has fewer rows (tags) than occupied
    // columns (user-resource pairs): the Gram is taken on the row side.
    let tensor = corpus_tensor(150, 120, 9_000, 77);
    let (unfolding, _) = tensor.unfold_csr(2);
    assert!(unfolding.rows() <= unfolding.cols());
    let svd = truncated_svd(&unfolding, 12, &SubspaceOptions::default()).unwrap();
    assert_eq!(
        svd_hash(&svd),
        0xacce9caad7172e46,
        "shape {}x{}",
        unfolding.rows(),
        unfolding.cols()
    );
}
