//! Wire-codec microbenchmarks backing the T11 front-end work: the
//! borrowed (zero-copy) request decode, and encoding into a reused
//! buffer against allocating a fresh `String` per response — the
//! codec-level saving the serving layer's warm path is built on — plus
//! the warm authentication every PEM request pays before decode: an
//! authentication-cache hit on a repeat client's chain.

use criterion::{criterion_group, criterion_main, Criterion};
use gridauthz_clock::SimDuration;
use gridauthz_credential::pem;
use gridauthz_gram::wire::{WireRequestRef, WireResponse};

fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("t11_wire_codec");

    // The widest real request: SUBMIT with an RSL and an account.
    let request = WireRequestRef::Submit {
        rsl: "&(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)(count = 4)",
        account: Some("fusion"),
        work: SimDuration::from_mins(30),
    };
    let text = request.encode().expect("fixture encodes");

    group.bench_function("decode-borrowed", |b| {
        b.iter(|| {
            std::hint::black_box(WireRequestRef::decode(std::hint::black_box(&text)))
                .expect("fixture decodes")
        });
    });

    // The widest real response: a six-header REPORT.
    let response = WireResponse::Report {
        contact: "gram://anl-cluster/jobs/00000042".into(),
        owner: "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu".into(),
        jobtag: Some("NFC".into()),
        account: "fusion".into(),
        state: "running".into(),
        executed_micros: 1_234_567,
    };

    group.bench_function("encode-fresh-string", |b| {
        b.iter(|| std::hint::black_box(response.encode().expect("fixture encodes")));
    });
    group.bench_function("encode-into-reused", |b| {
        let mut out = String::with_capacity(256);
        b.iter(|| {
            out.clear();
            response.encode_into(&mut out).expect("fixture encodes");
            std::hint::black_box(out.len())
        });
    });

    // A testbed member's chain as it arrives on the wire, verified once
    // so every iteration is a cache hit.
    let testbed = gridauthz_bench::extended_testbed(1);
    let chain = pem::encode_chain(testbed.members[0].chain());
    testbed.server.authenticate_pem(&chain).expect("member chains authenticate");
    group.bench_function("authenticate-pem-warm", |b| {
        b.iter(|| {
            std::hint::black_box(testbed.server.authenticate_pem(std::hint::black_box(&chain)))
                .expect("member chains authenticate")
        });
    });
    let stats = testbed.server.auth_cache_stats();
    assert_eq!(stats.misses, 1, "every warm iteration must hit the authentication cache");

    group.finish();
}

criterion_group!(benches, bench_wire_codec);
criterion_main!(benches);
