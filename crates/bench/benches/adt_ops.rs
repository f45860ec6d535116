//! A2 — microbenchmarks of the two hot ADT operations (`contains` and
//! `inferNewLogicalOrderings`) for both frameworks, on the TPC-R Query 8
//! input. This is the paper's core complexity claim made measurable:
//! O(1) table lookups vs Ω(n) reduction (even with Simmen's reduction
//! cache warm, it pays hash lookups instead of array indexing).

#![forbid(unsafe_code)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ofw_core::{OrderOracle, OrderingFramework, PruneConfig};
use ofw_query::extract::ExtractOptions;
use ofw_simmen::SimmenFramework;
use ofw_workload::q8_query;

fn setups() -> (OrderingFramework, SimmenFramework, ofw_core::InputSpec) {
    let (catalog, query) = q8_query();
    let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
    let ours = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let simmen = SimmenFramework::prepare(&ex.spec);
    (ours, simmen, ex.spec)
}

fn bench_oracle<O: OrderOracle>(
    c: &mut Criterion,
    label: &str,
    fw: &O,
    spec: &ofw_core::InputSpec,
) {
    let keys: Vec<O::Key> = spec
        .produced()
        .iter()
        .filter_map(|p| fw.resolve(p))
        .collect();
    let producible: Vec<O::Key> = keys
        .iter()
        .copied()
        .filter(|&k| fw.is_producible(k))
        .collect();
    let num_syms = spec.fd_sets().len();

    c.bench_function(&format!("{label}/infer"), |b| {
        let s0 = fw.produce(producible[0]);
        b.iter(|| {
            let mut s = s0;
            for f in 0..num_syms {
                s = fw.infer(s, ofw_core::FdSetId(f as u32));
            }
            black_box(s)
        })
    });

    c.bench_function(&format!("{label}/contains"), |b| {
        // Pre-walk to a state with many implied orderings.
        let mut s = fw.produce(producible[0]);
        for f in 0..num_syms {
            s = fw.infer(s, ofw_core::FdSetId(f as u32));
        }
        b.iter(|| {
            let mut hits = 0usize;
            for &k in &keys {
                if fw.satisfies(s, k) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });

    c.bench_function(&format!("{label}/produce"), |b| {
        b.iter(|| {
            for &k in &producible {
                black_box(fw.produce(k));
            }
        })
    });
}

fn adt_ops(c: &mut Criterion) {
    let (ours, simmen, spec) = setups();
    bench_oracle(c, "dfsm", &ours, &spec);
    bench_oracle(c, "simmen", &simmen, &spec);
}

criterion_group!(benches, adt_ops);
criterion_main!(benches);
