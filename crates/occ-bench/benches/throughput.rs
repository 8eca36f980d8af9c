//! P1 — engine + policy throughput (requests/second).
//!
//! Sweeps cache size, tenant count, and policy. The headline comparison:
//! the closed-form `ConvexCaching` must stay within a small constant of
//! LRU's throughput (both are `O(log k)` per request), while the literal
//! Figure 3 `DiscreteReference` degrades with `k` (its `O(k)` sweeps).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use occ_baselines::{Fifo, GreedyDual, Lru, LruK, Marking};
use occ_core::{ConvexCaching, CostProfile, DiscreteReference, Monomial};
use occ_sim::{ReplacementPolicy, Simulator, Trace};
use occ_workloads::{generate_multi_tenant, zipf_trace, AccessPattern, TenantSpec};

fn run_policy<P: ReplacementPolicy>(policy: &mut P, trace: &Trace, k: usize) -> u64 {
    policy.reset();
    Simulator::new(k).run(policy, trace).total_misses()
}

fn bench_policies_vs_k(c: &mut Criterion) {
    let len = 50_000usize;
    let mut group = c.benchmark_group("policy_throughput_vs_k");
    group.throughput(Throughput::Elements(len as u64));
    for &k in &[16usize, 64, 256] {
        let trace = zipf_trace(4 * k as u32, len, 0.9, 11);
        let costs = CostProfile::uniform(1, Monomial::power(2.0));

        group.bench_with_input(BenchmarkId::new("convex-caching", k), &k, |b, &k| {
            let mut alg = ConvexCaching::new(costs.clone());
            b.iter(|| run_policy(&mut alg, &trace, k));
        });
        group.bench_with_input(BenchmarkId::new("figure3-reference", k), &k, |b, &k| {
            let mut alg = DiscreteReference::new(costs.clone());
            b.iter(|| run_policy(&mut alg, &trace, k));
        });
        group.bench_with_input(BenchmarkId::new("lru", k), &k, |b, &k| {
            let mut alg = Lru::new();
            b.iter(|| run_policy(&mut alg, &trace, k));
        });
        group.bench_with_input(BenchmarkId::new("greedy-dual", k), &k, |b, &k| {
            let mut alg = GreedyDual::unweighted(1);
            b.iter(|| run_policy(&mut alg, &trace, k));
        });
    }
    group.finish();
}

/// Each deterministic `O(1)`/`O(log k)` policy against its `O(k)`-scan
/// key oracle, on the same trace: the measured gap is the payoff of the
/// intrusive-list / flat-ring structures over a cache scan per eviction.
fn bench_fast_vs_reference(c: &mut Criterion) {
    let len = 50_000usize;
    let mut group = c.benchmark_group("fast_vs_reference");
    group.throughput(Throughput::Elements(len as u64));
    for &k in &[256usize, 4096] {
        let trace = zipf_trace(4 * k as u32, len, 0.9, 11);
        let mut pairs: Vec<(Box<dyn ReplacementPolicy>, Box<dyn ReplacementPolicy>)> = vec![
            (Box::new(Lru::new()), Box::new(occ_oracle::lru())),
            (Box::new(Fifo::new()), Box::new(occ_oracle::fifo())),
            (Box::new(Marking::new()), Box::new(occ_oracle::marking())),
            (Box::new(LruK::new(2)), Box::new(occ_oracle::lru_k(2))),
        ];
        for (fast, reference) in &mut pairs {
            let fast_name = fast.name();
            group.bench_with_input(BenchmarkId::new(fast_name, k), &k, |b, &k| {
                b.iter(|| run_policy(fast, &trace, k));
            });
            let ref_name = reference.name();
            group.bench_with_input(BenchmarkId::new(ref_name, k), &k, |b, &k| {
                b.iter(|| run_policy(reference, &trace, k));
            });
        }
    }
    group.finish();
}

fn bench_tenant_scaling(c: &mut Criterion) {
    let len = 50_000usize;
    let mut group = c.benchmark_group("convex_caching_vs_tenants");
    group.throughput(Throughput::Elements(len as u64));
    for &n in &[2usize, 8, 32] {
        let specs: Vec<TenantSpec> = (0..n)
            .map(|i| TenantSpec::new(16, 1.0 + (i % 3) as f64, AccessPattern::Zipf { s: 0.8 }))
            .collect();
        let trace = generate_multi_tenant(&specs, len, 5);
        let costs = CostProfile::uniform(n as u32, Monomial::power(2.0));
        group.bench_with_input(BenchmarkId::new("tenants", n), &n, |b, _| {
            let mut alg = ConvexCaching::new(costs.clone());
            b.iter(|| run_policy(&mut alg, &trace, 64));
        });
    }
    group.finish();
}

fn bench_engine_overhead(c: &mut Criterion) {
    // Pure engine cost: a policy that does nothing but FIFO pops.
    let len = 100_000usize;
    let trace = zipf_trace(256, len, 0.9, 3);
    let mut group = c.benchmark_group("engine_overhead");
    group.throughput(Throughput::Elements(len as u64));
    group.bench_function("fifo_baseline", |b| {
        let mut fifo = occ_baselines::Fifo::new();
        b.iter(|| run_policy(&mut fifo, &trace, 64));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_policies_vs_k,
    bench_fast_vs_reference,
    bench_tenant_scaling,
    bench_engine_overhead
);
criterion_main!(benches);
