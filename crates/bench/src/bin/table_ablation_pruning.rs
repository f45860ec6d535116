//! A1 — ablation of the §5.7 reduction techniques on TPC-R Query 8:
//! each pruning switch is disabled in isolation (and enabled in
//! isolation) to show where the NFSM/DFSM size reductions come from.

#![forbid(unsafe_code)]

use ofw_core::PruneConfig;

fn main() {
    let all = PruneConfig::default();
    let none = PruneConfig::none();
    let variants: Vec<(&str, PruneConfig)> = vec![
        ("none", none.clone()),
        (
            "only fd-pruning",
            PruneConfig {
                prune_fds: true,
                ..none.clone()
            },
        ),
        (
            "only merge",
            PruneConfig {
                merge_artificial: true,
                ..none.clone()
            },
        ),
        (
            "only eps-replace",
            PruneConfig {
                eps_replace: true,
                ..none.clone()
            },
        ),
        (
            "only prefix-filter",
            PruneConfig {
                prefix_filter: true,
                ..none.clone()
            },
        ),
        (
            "only length-cutoff",
            PruneConfig {
                length_cutoff: true,
                ..none.clone()
            },
        ),
        (
            "all minus fd-pruning",
            PruneConfig {
                prune_fds: false,
                ..all.clone()
            },
        ),
        (
            "all minus merge",
            PruneConfig {
                merge_artificial: false,
                ..all.clone()
            },
        ),
        (
            "all minus eps-replace",
            PruneConfig {
                eps_replace: false,
                ..all.clone()
            },
        ),
        (
            "all minus prefix-filter",
            PruneConfig {
                prefix_filter: false,
                ..all.clone()
            },
        ),
        (
            "all minus length-cutoff",
            PruneConfig {
                length_cutoff: false,
                ..all.clone()
            },
        ),
        ("all", all),
    ];

    println!("Pruning ablation — TPC-R Query 8 preparation (paper §5.7 / §6.2)");
    println!();
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "configuration", "NFSM pre", "NFSM", "DFSM", "bytes", "time(ms)"
    );
    for (label, config) in variants {
        let row = ofw_bench::prep_q8_with(label, config);
        println!(
            "{:<26} {:>10} {:>10} {:>10} {:>10} {:>10}",
            row.label,
            row.nfsm_nodes_before,
            row.nfsm_nodes,
            row.dfsm_nodes,
            row.precomputed_bytes,
            ofw_bench::ms(row.total_time)
        );
    }
}
