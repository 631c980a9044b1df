//! Telemetry overhead on the cached decide hot path.
//!
//! The budget (DESIGN.md §Telemetry): with telemetry attached, a cache
//! hit records exactly one relaxed counter increment and reads no
//! clock, so the `telemetered` series must stay within 5% of `bare`.
//! The `traced` series shows the served path's ceiling —
//! [`AuthzEngine::authorize_within`] with a full [`DecisionTrace`] costs
//! two `Instant` reads plus a span push per stage.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use gridauthz_bench::{combined_pdp_with_n_sources, management_request};
use gridauthz_clock::SimTime;
use gridauthz_core::{AuthzEngine, RequestContext};
use gridauthz_telemetry::TelemetryRegistry;

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    let request = management_request();

    let bare = AuthzEngine::cached("bench", combined_pdp_with_n_sources(2));
    assert!(bare.decide(&request).is_permit(), "fixture must permit");

    let registry = Arc::new(TelemetryRegistry::new());
    let mut telemetered = AuthzEngine::cached("bench", combined_pdp_with_n_sources(2));
    telemetered.set_telemetry(Arc::clone(&registry));
    assert!(telemetered.decide(&request).is_permit(), "fixture must permit");

    // Steady-state cache hits: the caches are warm after the asserts.
    group.bench_function("cached_decide/bare", |b| {
        b.iter(|| std::hint::black_box(bare.decide(&request)));
    });
    group.bench_function("cached_decide/telemetered", |b| {
        b.iter(|| std::hint::black_box(telemetered.decide(&request)));
    });
    group.bench_function("cached_decide/traced", |b| {
        let ctx = RequestContext::unbounded();
        b.iter(|| {
            let mut trace = registry.start_trace("bench", SimTime::from_secs(0));
            let outcome =
                std::hint::black_box(telemetered.authorize_within(&ctx, &request, &mut trace));
            registry.finish_trace(trace);
            outcome
        });
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
