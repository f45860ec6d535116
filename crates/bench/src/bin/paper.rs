//! Regenerates the paper's evidence in one pass, in this order:
//!
//! - E5, the §6.2 TPC-R Query 8 preparation table (NFSM/DFSM sizes,
//!   preparation time and precomputed bytes, with and without the §5.7
//!   pruning techniques), and A1, the ablation of those techniques: each
//!   switched on alone and off alone. Both read one set of twelve
//!   preparations; §6.2's columns are the ablation's `none` and `all`.
//! - E6, the §7 Query 8 plan-generation table (total time, subplans,
//!   time per subplan and memory, Simmen's algorithm vs the DFSM
//!   framework), and the winning plan, explained with the properties
//!   the DFSM reports each node holding.
//! - A2, the O(1)-vs-Ω(n) ADT operations (`infer`, `contains`,
//!   `produce`) on both arms, in nanoseconds per call.
//! - E7 and E8, Fig. 13 (plan generation for random join graphs with
//!   n = 5..`max_n` relations and n-1 / n / n+1 edges) and Fig. 14
//!   (memory, plus the DFSM, which is included in our total, as in the
//!   paper), both from one sweep.
//!
//! Usage: `paper [queries_per_cell] [max_n]` (defaults 10 and 10; the
//! paper averaged 100 runs for small queries, 10 for large ones).
//!
//! Paper reference values (AMD Athlon XP 1800+, gcc 3.2):
//! ```text
//!                     w/o pruning   with pruning
//! NFSM size           376 nodes     38 nodes
//! DFSM size           80 nodes      24 nodes
//! total time          16 ms         0.2 ms
//! precomputed data    3040 bytes    912 bytes
//!
//!              Simmen    ours
//! t (ms)       262       52
//! #Plans       200536    123954
//! t/plan (µs)  1.31      0.42
//! Memory (KB)  329       136
//! ```

#![forbid(unsafe_code)]

use ofw_bench::{AdtRow, PlanRow, PrepRow, SweepCell, SWEEP_MIN_N};
use std::time::Duration;

const USAGE: &str = "paper [queries_per_cell] [max_n]";

fn main() {
    let queries = ofw_bench::count_arg(1, 10, 1, USAGE);
    let max_n = ofw_bench::count_arg(2, 10, SWEEP_MIN_N, USAGE);

    let ablation = ofw_bench::pruning_ablation();
    print_prep(&ablation[0], &ablation[ablation.len() - 1]);
    println!();
    print_ablation(&ablation);
    println!();
    let (simmen, ours, plan) = ofw_bench::q8_plangen();
    print_q8_plangen(&simmen, &ours);
    println!();
    println!("== winning plan (DFSM arm; held properties in brackets) ==");
    print!("{plan}");
    println!();
    print_adt_ops(&ofw_bench::adt_ops());
    println!();
    let cells = ofw_bench::sweep(queries, max_n);
    print_fig13(&cells, queries);
    println!();
    print_fig14(&cells, queries);
}

fn print_prep(without: &PrepRow, with: &PrepRow) {
    println!("TPC-R Query 8 — preparation step (paper §6.2)");
    println!();
    println!("{:<22} {:>14} {:>14}", "", "w/o pruning", "with pruning");
    println!(
        "{:<22} {:>8} nodes {:>8} nodes",
        "NFSM size", without.nfsm_nodes, with.nfsm_nodes
    );
    println!(
        "{:<22} {:>8} nodes {:>8} nodes",
        "DFSM size", without.dfsm_nodes, with.dfsm_nodes
    );
    println!(
        "{:<22} {:>9} ms {:>10} ms",
        "total time",
        ms(without.total_time),
        ms(with.total_time)
    );
    println!(
        "{:<22} {:>8} bytes {:>8} bytes",
        "precomputed data", without.precomputed_bytes, with.precomputed_bytes
    );
    println!();
    println!("paper: NFSM 376 -> 38, DFSM 80 -> 24, time 16ms -> 0.2ms, bytes 3040 -> 912");
}

fn print_ablation(rows: &[PrepRow]) {
    println!("Pruning ablation — TPC-R Query 8 preparation (paper §5.7 / §6.2)");
    println!();
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "configuration", "NFSM pre", "NFSM", "DFSM", "bytes", "time(ms)"
    );
    for row in rows {
        println!(
            "{:<26} {:>10} {:>10} {:>10} {:>10} {:>10}",
            row.label,
            row.nfsm_nodes_before,
            row.nfsm_nodes,
            row.dfsm_nodes,
            row.precomputed_bytes,
            ms(row.total_time)
        );
    }
}

fn print_q8_plangen(simmen: &PlanRow, ours: &PlanRow) {
    println!("TPC-R Query 8 — plan generation (paper §7)");
    println!();
    println!("{:<14} {:>12} {:>16}", "", simmen.framework, ours.framework);
    println!(
        "{:<14} {:>12} {:>16}",
        "t (ms)",
        ms(simmen.time),
        ms(ours.time)
    );
    println!("{:<14} {:>12} {:>16}", "#Plans", simmen.plans, ours.plans);
    println!(
        "{:<14} {:>12} {:>16}",
        "t/plan (us)",
        us(simmen.time_per_plan),
        us(ours.time_per_plan)
    );
    println!(
        "{:<14} {:>12} {:>16}",
        "Memory (KB)",
        kb(simmen.memory_bytes),
        kb(ours.memory_bytes)
    );
    println!();
    println!(
        "improvement: t x{:.2}, #Plans x{:.2}, t/plan x{:.2}, memory x{:.2}",
        simmen.time.as_secs_f64() / ours.time.as_secs_f64().max(1e-12),
        simmen.plans as f64 / ours.plans.max(1) as f64,
        simmen.time_per_plan.as_secs_f64() / ours.time_per_plan.as_secs_f64().max(1e-12),
        simmen.memory_bytes as f64 / ours.memory_bytes.max(1) as f64,
    );
    println!("paper: t 262->52 ms, #Plans 200536->123954, t/plan 1.31->0.42 us, mem 329->136 KB");
}

fn print_adt_ops(rows: &[AdtRow]) {
    println!("ADT operations — TPC-R Query 8 input (O(1) table lookups vs Ω(n) reduction)");
    println!();
    println!("{:<18} {:>8} {:>10}", "operation", "calls", "ns/call");
    for row in rows {
        println!("{:<18} {:>8} {:>10.2}", row.id, row.calls, row.ns_per_call);
    }
    println!();
    println!("calls = operations per timed iteration; the fastest batch counts");
}

fn print_fig13(cells: &[SweepCell], queries: usize) {
    println!("Fig. 13 — plan generation for different join graphs ({queries} queries/cell)");
    println!();
    println!(
        "{:>2} {:>7} | {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8} | {:>6} {:>8} {:>9}",
        "n",
        "#Edges",
        "t(ms) S",
        "#Plans S",
        "t/p S",
        "t(ms) O",
        "#Plans O",
        "t/p O",
        "% t",
        "% #Plans",
        "% t/plan"
    );
    for group in cells.chunk_by(|a, b| a.extra == b.extra) {
        for cell in group {
            let (s, o) = (&cell.simmen, &cell.ours);
            println!(
                "{:>2} {:>7} | {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8} | {:>6.2} {:>8.2} {:>9.2}",
                cell.n,
                ["n-1", "n", "n+1"][cell.extra],
                ms(s.time),
                s.plans,
                us(s.time_per_plan),
                ms(o.time),
                o.plans,
                us(o.time_per_plan),
                s.time.as_secs_f64() / o.time.as_secs_f64().max(1e-12),
                s.plans as f64 / o.plans.max(1) as f64,
                s.time_per_plan.as_secs_f64() / o.time_per_plan.as_secs_f64().max(1e-12),
            );
        }
        println!();
    }
    println!("S = Simmen et al., O = ours; %x = Simmen / ours (higher = larger win)");
}

fn print_fig14(cells: &[SweepCell], queries: usize) {
    println!("Fig. 14 — memory consumption (KB, {queries} queries/cell)");
    println!();
    println!(
        "{:>2} {:>7} | {:>10} {:>14} {:>8}",
        "n", "#Edges", "Simmen", "Our Algorithm", "DFSM"
    );
    for group in cells.chunk_by(|a, b| a.extra == b.extra) {
        for cell in group {
            println!(
                "{:>2} {:>7} | {:>10} {:>14} {:>8}",
                cell.n,
                ["n-1", "n+0", "n+1"][cell.extra],
                kb(cell.simmen.memory_bytes),
                kb(cell.ours.memory_bytes),
                kb(cell.ours.precomputed_bytes),
            );
        }
        println!();
    }
    println!("paper shape: our algorithm uses roughly half of Simmen's memory;");
    println!("the DFSM itself stays tiny (a few KB).");
}

/// Formats a duration as fractional milliseconds.
fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Formats a duration as fractional microseconds.
fn us(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e6)
}

/// Formats bytes as KB with one decimal.
fn kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}
