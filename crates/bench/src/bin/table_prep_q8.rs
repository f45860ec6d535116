//! E5 — regenerates the §6.2 preparation table for TPC-R Query 8:
//! NFSM/DFSM sizes, preparation time and precomputed bytes, with and
//! without the §5.7 pruning techniques.
//!
//! Paper reference values (AMD Athlon XP 1800+, gcc 3.2):
//! ```text
//!                     w/o pruning   with pruning
//! NFSM size           376 nodes     38 nodes
//! DFSM size           80 nodes      24 nodes
//! total time          16 ms         0.2 ms
//! precomputed data    3040 bytes    912 bytes
//! ```

fn main() {
    let (without, with) = ofw_bench::prep_q8();
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
        ofw_bench::ms(without.total_time),
        ofw_bench::ms(with.total_time)
    );
    println!(
        "{:<22} {:>8} bytes {:>8} bytes",
        "precomputed data", without.precomputed_bytes, with.precomputed_bytes
    );
    println!();
    println!("paper: NFSM 376 -> 38, DFSM 80 -> 24, time 16ms -> 0.2ms, bytes 3040 -> 912");
}
