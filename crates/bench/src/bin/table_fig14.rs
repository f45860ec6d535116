//! E8 — regenerates Fig. 14: order-optimization memory consumption for
//! the same random join-graph sweep as Fig. 13, plus the DFSM size
//! (which is included in our total, as in the paper).
//!
//! Usage: `table_fig14 [queries_per_cell] [max_n]` (defaults 10, 10).

#![forbid(unsafe_code)]

const USAGE: &str = "table_fig14 [queries_per_cell] [max_n]";

fn main() {
    let queries = ofw_bench::count_arg(1, 10, USAGE);
    let max_n = ofw_bench::count_arg(2, 10, USAGE);

    println!("Fig. 14 — memory consumption (KB, {queries} queries/cell)");
    println!();
    println!(
        "{:>2} {:>7} | {:>10} {:>14} {:>8}",
        "n", "#Edges", "Simmen", "Our Algorithm", "DFSM"
    );
    for extra in 0..=2usize {
        let label = ["n-1", "n+0", "n+1"][extra];
        for n in 5..=max_n {
            // Same seeds as table_fig13 so the two tables describe the
            // same queries, as in the paper.
            let cell = ofw_bench::sweep_cell(n, extra, queries, 0xF13 + (n * 10 + extra) as u64);
            println!(
                "{:>2} {:>7} | {:>10} {:>14} {:>8}",
                n,
                label,
                ofw_bench::kb(cell.simmen.memory_bytes),
                ofw_bench::kb(cell.ours.memory_bytes),
                ofw_bench::kb(cell.dfsm_bytes),
            );
        }
        println!();
    }
    println!("paper shape: our algorithm uses roughly half of Simmen's memory;");
    println!("the DFSM itself stays tiny (a few KB).");
}
