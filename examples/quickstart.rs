//! Quickstart: the paper's running example (§5), end to end.
//!
//! Interesting orders `(b)`, `(a,b)` (produced) and `(a,b,c)` (tested);
//! operators introducing `{b→c}` and `{b→d}`. The preparation step
//! builds the NFSM of Fig. 7, the DFSM of Fig. 8 and the precomputed
//! tables of Figs. 9–10; afterwards every ADT call is O(1).
//!
//! Run with: `cargo run --example quickstart`

use ofw::catalog::AttrId;
use ofw::core::{
    Fd, InputSpec, LogicalProperty, OrderOracle, Ordering, OrderingFramework, PruneConfig,
};

fn main() {
    let [a, b, c, d] = [AttrId(0), AttrId(1), AttrId(2), AttrId(3)];
    let name = |x: AttrId| ["a", "b", "c", "d"][x.index()];

    // 1. The input (paper §5.2).
    let mut spec = InputSpec::new();
    spec.add_produced(Ordering::new(vec![b]));
    spec.add_produced(Ordering::new(vec![a, b]));
    spec.add_tested(Ordering::new(vec![a, b, c]));
    let f_bc = spec.add_fd_set(vec![Fd::functional(&[b], c)]);
    let f_bd = spec.add_fd_set(vec![Fd::functional(&[b], d)]);

    // 2.–4. The preparation phase (Fig. 3).
    let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
    let stats = fw.stats();
    println!("== preparation (paper Fig. 3) ==");
    println!("NFSM nodes:        {}", stats.nfsm_nodes);
    println!(
        "DFSM states:       {} (Fig. 8 has 3 + our explicit empty state)",
        stats.dfsm_states
    );
    println!(
        "pruned FDs:        {} ({{b->d}} can never matter)",
        stats.pruned_fds
    );
    println!("precomputed bytes: {}", stats.precomputed_bytes);
    println!("prep time:         {:?}", stats.prep_time);
    println!();

    // The contains matrix (Fig. 9).
    println!("== contains matrix (Fig. 9) ==");
    let mut orders: Vec<(LogicalProperty, ofw::core::OrderHandle)> = fw.properties().collect();
    orders.sort_by_key(|(o, _)| o.attrs().to_vec());
    for state in 0..stats.dfsm_states as u32 {
        let s = ofw::core::State(state);
        let row: Vec<String> = orders
            .iter()
            .map(|(o, h)| {
                let names: Vec<&str> = o.attrs().iter().map(|&x| name(x)).collect();
                format!("({})={}", names.join(","), u8::from(fw.satisfies(s, *h)))
            })
            .collect();
        println!("state {state}: {}", row.join("  "));
    }
    println!();

    // 5.6 walkthrough: "a sort by (a,b) results in a subplan with
    // ordering 2 … after an operator which induces b→c, the ordering
    // changes to 3, which also satisfies (a,b,c)".
    println!("== plan-generation walkthrough (paper §5.6) ==");
    let h_ab = fw.resolve(&Ordering::new(vec![a, b]).into()).unwrap();
    let h_abc = fw.resolve(&Ordering::new(vec![a, b, c]).into()).unwrap();

    let s = fw.produce(h_ab);
    println!("sort by (a,b)            -> state {s:?}");
    println!("  satisfies (a,b):   {}", fw.satisfies(s, h_ab));
    println!("  satisfies (a,b,c): {}", fw.satisfies(s, h_abc));

    let s = fw.infer(s, f_bc);
    println!("apply operator {{b->c}}    -> state {s:?}");
    println!("  satisfies (a,b,c): {}", fw.satisfies(s, h_abc));

    let s2 = fw.infer(s, f_bd);
    println!("apply operator {{b->d}}    -> state {s2:?} (pruned: identity)");
    assert_eq!(s, s2);

    println!();
    println!("every call above was a single table/bit lookup — O(1), 4 bytes per plan node.");
}
