//! E6 — regenerates the §7 TPC-R Query 8 plan-generation table:
//! total time, number of subplans, time per subplan and memory for
//! Simmen's algorithm vs the DFSM framework.
//!
//! Paper reference values:
//! ```text
//!              Simmen    ours
//! t (ms)       262       52
//! #Plans       200536    123954
//! t/plan (µs)  1.31      0.42
//! Memory (KB)  329       136
//! ```

fn main() {
    let (simmen, ours) = ofw_bench::q8_plangen();
    println!("TPC-R Query 8 — plan generation (paper §7)");
    println!();
    println!("{:<14} {:>12} {:>16}", "", simmen.framework, ours.framework);
    println!(
        "{:<14} {:>12} {:>16}",
        "t (ms)",
        ofw_bench::ms(simmen.time),
        ofw_bench::ms(ours.time)
    );
    println!("{:<14} {:>12} {:>16}", "#Plans", simmen.plans, ours.plans);
    println!(
        "{:<14} {:>12} {:>16}",
        "t/plan (us)",
        ofw_bench::us(simmen.time_per_plan),
        ofw_bench::us(ours.time_per_plan)
    );
    println!(
        "{:<14} {:>12} {:>16}",
        "Memory (KB)",
        ofw_bench::kb(simmen.memory_bytes),
        ofw_bench::kb(ours.memory_bytes)
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
