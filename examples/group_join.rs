//! Aggregation placement walkthrough: eager push-down and the fused
//! group-join against root-only aggregation, side by side.
//!
//! Two queries:
//!
//! 1. **"orders per customer"** — `select c_custkey, count(*),
//!    sum(o_totalprice) from customer, orders where o_custkey =
//!    c_custkey group by c_custkey`. The probe side (`customer`) is
//!    clustered by its unique primary key, which *is* the group key, so
//!    the top join and the final aggregation fuse into one streaming
//!    pass — a group-join — while root-only aggregation must re-hash
//!    the full 1.5M-row join output.
//! 2. **a star schema** — a ~10⁵-row fact table with fanning dimension
//!    joins and a selective group key. Here the winning move is the
//!    *eager* one: pre-aggregate the fact table below the joins, so
//!    every operator above sees thousands of rows instead of millions.
//!
//! Run with `cargo run --release --example group_join`.

use ofw::core::{OrderingFramework, PruneConfig};
use ofw::plangen::PlanGen;
use ofw::query::extract::ExtractOptions;
use ofw::workload::{groupjoin_showcase_query, star_agg_query, StarAggConfig};

fn side_by_side(title: &str, catalog: &ofw::catalog::Catalog, query: &ofw::query::Query) {
    let ex = ofw::query::extract(catalog, query, &ExtractOptions::default());
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let placed = PlanGen::new(catalog, query, &ex, &fw).run();
    let root_only = PlanGen::new(catalog, query, &ex, &fw)
        .aggregation_placement(false)
        .run();

    println!("== {title} ==");
    println!();
    println!(
        "root-only aggregation (cost {:.0}, {} subplans):",
        root_only.cost, root_only.stats.plans
    );
    print!("{}", root_only.explain(catalog, query, &ex, &fw).text());
    println!();
    println!(
        "with aggregation placement (cost {:.0}, {} subplans):",
        placed.cost, placed.stats.plans
    );
    print!("{}", placed.explain(catalog, query, &ex, &fw).text());
    println!();
    println!("placement wins by {:.2}x", root_only.cost / placed.cost);
    println!();
}

fn main() {
    let (catalog, query) = groupjoin_showcase_query();
    side_by_side(
        "orders per customer: merge-flavored group-join over the clustered probe",
        &catalog,
        &query,
    );

    // Seed 9 is a star whose fanning joins multiply the fact table ~80x
    // before the root — exactly what eager push-down sidesteps.
    let (catalog, query) = star_agg_query(&StarAggConfig {
        dimensions: 3,
        seed: 9,
    });
    side_by_side(
        "star schema: eager pre-aggregation below fanning joins",
        &catalog,
        &query,
    );
}
