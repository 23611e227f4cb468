//! Bench: the appendix experiments end-to-end at quick scale.
//!
//! One Criterion target per appendix artifact — Lemma 16's composition
//! grid, the Lemma 19 / Corollary 20 expander probabilities, the exact
//! Proposition 23 binomial sums, Theorem 26's barbell proof events, the
//! exact-DP validation zoo, and the Theorem 24 projection coupling — so
//! `cargo bench -p mrw-bench --bench appendix` regenerates the whole
//! appendix the same way the table/figure benches regenerate the body.

use criterion::{criterion_group, criterion_main, Criterion};
use mrw_core::experiments::{barbell_events, exact_zoo, lemma16, lemma19, projection, prop23};

fn bench_lemma16(c: &mut Criterion) {
    let mut group = c.benchmark_group("appendix");
    group.sample_size(10);
    group.bench_function("lemma16_composition_grid", |b| {
        let cfg = lemma16::Config::quick();
        b.iter(|| lemma16::run(&cfg))
    });
    group.finish();
}

fn bench_lemma19(c: &mut Criterion) {
    let mut group = c.benchmark_group("appendix");
    group.sample_size(10);
    group.bench_function("lemma19_cor20_expander", |b| {
        let cfg = lemma19::Config::quick();
        b.iter(|| lemma19::run(&cfg))
    });
    group.finish();
}

fn bench_prop23(c: &mut Criterion) {
    let mut group = c.benchmark_group("appendix");
    group.bench_function("prop23_exact_binomial", |b| {
        let cfg = prop23::Config::default(); // exact sums are cheap
        b.iter(|| prop23::run(&cfg))
    });
    group.finish();
}

fn bench_barbell_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("appendix");
    group.sample_size(10);
    group.bench_function("thm26_barbell_events", |b| {
        let cfg = barbell_events::Config::quick();
        b.iter(|| barbell_events::run(&cfg))
    });
    group.finish();
}

fn bench_exact_zoo(c: &mut Criterion) {
    let mut group = c.benchmark_group("appendix");
    group.sample_size(10);
    group.bench_function("exact_dp_zoo", |b| {
        let mut cfg = exact_zoo::Config::quick();
        cfg.budget.trials = 500; // DP dominates; keep MC arm light for the bench
        b.iter(|| exact_zoo::run(&cfg))
    });
    group.finish();
}

fn bench_projection(c: &mut Criterion) {
    let mut group = c.benchmark_group("appendix");
    group.sample_size(10);
    group.bench_function("thm24_projection_coupling", |b| {
        let cfg = projection::Config::quick();
        b.iter(|| projection::run(&cfg))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lemma16,
    bench_lemma19,
    bench_prop23,
    bench_barbell_events,
    bench_exact_zoo,
    bench_projection
);
criterion_main!(benches);
