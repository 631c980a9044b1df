//! T8: decision-cache speedup on repeated identical management requests.
//!
//! VO-wide management (requirement 3 of §2) makes the same PEP evaluate
//! the same (subject, action, jobtag) triple over and over — an admin
//! polling every `NFC` job re-runs an identical decision per job per
//! poll. The cache keys decisions by a canonical digest of the
//! evaluation-relevant request fields and answers repeats without
//! touching the PDP; a policy-generation bump invalidates wholesale.
//!
//! Three series per source count:
//! * `uncached` — the plain `CombinedPdp` evaluation,
//! * `cached` — steady-state hits (the claimed ≥2x case),
//! * `cached-cold` — a fresh generation before every lookup (as if a
//!   snapshot were published between decisions), i.e. the worst case of
//!   digest + miss + insert on top of evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridauthz_bench::{combined_pdp_with_n_sources, management_request};
use gridauthz_core::DecisionCache;

fn bench_decision_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("t8_decision_cache");
    let request = management_request();

    // Two sources (resource owner + VO) is the paper's minimum
    // deployment — §5.2's model always combines both. With a single
    // source the digest cost eats most of the saving.
    for sources in [2usize, 4, 8] {
        let pdp = combined_pdp_with_n_sources(sources);
        assert!(pdp.decide(&request).is_permit(), "fixture must permit");

        group.bench_with_input(BenchmarkId::new("uncached", sources), &sources, |b, _| {
            b.iter(|| std::hint::black_box(pdp.decide(&request)));
        });

        let warm = DecisionCache::new();
        group.bench_with_input(BenchmarkId::new("cached", sources), &sources, |b, _| {
            b.iter(|| std::hint::black_box(warm.decide(0, &pdp, &request)));
        });

        let cold = DecisionCache::new();
        group.bench_with_input(BenchmarkId::new("cached-cold", sources), &sources, |b, _| {
            let mut generation = 0u64;
            b.iter(|| {
                generation += 1;
                std::hint::black_box(cold.decide(generation, &pdp, &request))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decision_cache);
criterion_main!(benches);
