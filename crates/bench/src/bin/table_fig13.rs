//! E7 — regenerates Fig. 13: plan generation for random join graphs with
//! n = 5..10 relations and n-1 / n / n+1 edges; Simmen's algorithm vs
//! ours, with improvement factors.
//!
//! Usage: `table_fig13 [queries_per_cell] [max_n]` (defaults 10 and 10;
//! the paper averaged 100 runs for small queries, 10 for large ones).

#![forbid(unsafe_code)]

const USAGE: &str = "table_fig13 [queries_per_cell] [max_n]";

fn main() {
    let queries = ofw_bench::count_arg(1, 10, USAGE);
    let max_n = ofw_bench::count_arg(2, 10, USAGE);

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
    for extra in 0..=2usize {
        let edge_label = ["n-1", "n", "n+1"][extra];
        for n in 5..=max_n {
            let cell = ofw_bench::sweep_cell(n, extra, queries, 0xF13 + (n * 10 + extra) as u64);
            let s = &cell.simmen;
            let o = &cell.ours;
            println!(
                "{:>2} {:>7} | {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8} | {:>6.2} {:>8.2} {:>9.2}",
                n,
                edge_label,
                ofw_bench::ms(s.time),
                s.plans,
                ofw_bench::us(s.time_per_plan),
                ofw_bench::ms(o.time),
                o.plans,
                ofw_bench::us(o.time_per_plan),
                s.time.as_secs_f64() / o.time.as_secs_f64().max(1e-12),
                s.plans as f64 / o.plans.max(1) as f64,
                s.time_per_plan.as_secs_f64() / o.time_per_plan.as_secs_f64().max(1e-12),
            );
        }
        println!();
    }
    println!("S = Simmen et al., O = ours; %x = Simmen / ours (higher = larger win)");
}
