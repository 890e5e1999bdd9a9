//! The same v2↔v3 differential matrix and census-kernel agreement check
//! as `columnar_differential.rs`, but with the AVX2 census kernels
//! disabled via `TRACEFMT_NO_AVX2`, so the scalar fallbacks are what must
//! stay bit-identical. This is its own test binary because the CPU-feature
//! probe is cached process-wide on first use — the override must be set
//! before any census kernel runs, so every test here calls
//! [`force_scalar`] first.

mod common;

/// Set `TRACEFMT_NO_AVX2` exactly once, before any test of this binary
/// runs a kernel: tests run on parallel threads, and each one blocks here
/// until the variable is set.
fn force_scalar() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("TRACEFMT_NO_AVX2", "1"));
}

#[test]
fn v3_streamed_ingest_is_bit_identical_on_scalar_kernels() {
    force_scalar();
    common::v3_ingest_differential_matrix();
}

#[test]
fn census_kernels_agree_with_the_reference_on_scalar_kernels() {
    force_scalar();
    common::census_agreement_on_adversarial_lanes();
}
