//! The pipeline benchmark: one workload per process, a closed loop of
//! one client on one thread issuing ops back to back.
//!
//! ```text
//! pipeline_bench --workload W --seed N --seconds S --trace 0|1
//!                --lock benchmark/inputs.lock --out benchmark/out
//! ```
//!
//! A run sets up for [`SETUP_SECONDS`] (generate inputs, fingerprint
//! them, one untimed warm-up pass) and reports the median as `setup_s`,
//! then repeats timed passes over the suite in suite order until
//! `--seconds` have gone by, verifies the outputs, and prints one JSON
//! object as the last line of its standard output. Everything else —
//! the header, diagnostics, failure reasons — goes to standard error.

mod alloc;
mod data;
mod layers;
mod lock;
mod measure;
mod naive;
mod ops;
mod suites;
mod trace;
mod util;
mod verify;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

use layers::Observed;
use lock::{Lock, Verdict};
use measure::Samples;
use naive::ResultDigest;
use ofw_parallel::ThreadPool;
use ops::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use suites::{Built, Suite, Workload};
use trace::Tracer;
use util::JsonObj;

/// A run sets up again and again for this long, at least [`MIN_SETUPS`]
/// times; `setup_s` is the median. One set-up is a single pass without a
/// minimum to lean on, so its time swings by ±20 %; a median of three
/// left a spread of 12–38 % over ten seeds.
const SETUP_SECONDS: f64 = 3.0;
const MIN_SETUPS: usize = 3;
/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Traced (and, interleaved, untraced) passes of a `--trace 1` run.
const TRACED_PASSES: usize = 5;

/// The end-to-end metrics with their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("suite_ms", "ms"),
    ("op_geomean_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    lock: PathBuf,
    out: PathBuf,
    print_lock: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut lock = PathBuf::from("benchmark/inputs.lock");
    let mut out = PathBuf::from("benchmark/out");
    let mut print_lock = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--lock" => lock = value()?.into(),
            "--out" => out = value()?.into(),
            "--print-lock" => print_lock = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        lock,
        out,
        print_lock,
    })
}

/// One pass over the suite in suite order.
fn pass(suite: &Suite, tr: &mut Tracer, index: u32) -> (Vec<f64>, Vec<Result<Report, String>>) {
    (0..suite.ops())
        .map(|op| {
            tr.set_context(index, op as u32);
            let done = ops::run_op(suite, op, tr);
            (done.ms, done.report)
        })
        .unzip()
}

/// Why each op failed, if it did.
struct Failures(Vec<Option<String>>);

impl Failures {
    fn note(&mut self, op: usize, why: impl FnOnce() -> String) {
        self.0[op].get_or_insert_with(why);
    }

    fn count(&self) -> usize {
        self.0.iter().flatten().count()
    }
}

/// Generate, fingerprint, warm up — what `setup_s` times. The warm-up
/// pass also fills the shared `PreparedCache` of `plan_repeat`.
fn set_up(args: &Args) -> (Built, u64) {
    let built = suites::build(args.workload, args.seed);
    let fingerprint = built.suite.fingerprint();
    pass(&built.suite, &mut Tracer::new(false), 0);
    (built, fingerprint)
}

/// The checks of [`verify`], over the whole suite. Returns the result
/// digests for `inputs.lock` (one per op, `None` where an op has none).
fn verify_suite(
    args: &Args,
    suite: &Suite,
    reference: &[Result<Report, String>],
    pool: &ThreadPool,
    failures: &mut Failures,
    seen: &mut Observed,
) -> Vec<Option<ResultDigest>> {
    let mut digests = vec![None; suite.ops()];
    match suite {
        Suite::Plan { cases, cache } => {
            for (op, case) in cases.iter().enumerate() {
                let Ok(report) = &reference[op] else { continue };
                match verify::check_plan_arms(case, report, cache.is_some()) {
                    Ok(plans) => seen.simmen_plans += plans,
                    Err(why) => {
                        seen.cost_mismatches += 1;
                        failures.note(op, || why);
                    }
                }
            }
        }
        Suite::Prep(_) => {}
        Suite::Exec(cases) => {
            for (op, case) in cases.iter().enumerate() {
                let Ok(report) = &reference[op] else { continue };
                match verify::check_exec_full(case, report, pool) {
                    Ok((digest, pool_ms)) => {
                        digests[op] = Some(digest);
                        seen.exec_pool_ms += pool_ms;
                    }
                    Err(why) => {
                        seen.identity_failures += u64::from(why == verify::NOT_IDENTICAL);
                        failures.note(op, || why);
                    }
                }
                // Printing the lock is how a new suite gets pinned; its
                // digests must not depend on the small-scale check.
                if !args.print_lock {
                    if let Err(why) = verify::check_exec_small(case) {
                        failures.note(op, || why);
                    }
                }
            }
        }
    }
    digests
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    metrics
        .iter()
        .fold(JsonObj::default(), |obj, &(name, value, unit)| {
            let entry = JsonObj::default().num("value", value).str("unit", unit);
            obj.raw(name, &entry.finish())
        })
        .finish()
}

fn run(args: &Args, malloc: &str) -> Result<String, String> {
    let wall = Instant::now();
    let lock_text = std::fs::read_to_string(&args.lock)
        .map_err(|e| format!("cannot read {}: {e}", args.lock.display()))?;
    let lock = Lock::parse(&lock_text)?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let name = args.workload.name();
    eprintln!(
        "# workload={name} seed={} seconds={} trace={} nproc={threads} malloc: {malloc}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let mut setup_s = Vec::new();
    let mut last = None;
    let setting_up = Instant::now();
    while setup_s.len() < MIN_SETUPS || setting_up.elapsed().as_secs_f64() < SETUP_SECONDS {
        // Release the previous suite first: two sets of base data would
        // double the peak the run reports.
        drop(last.take());
        let start = Instant::now();
        last = Some(set_up(args));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (built, fingerprint) = last.expect("MIN_SETUPS > 0");
    let suite = &built.suite;
    let ops = suite.ops();
    if ops == 0 {
        return Err(format!("workload {name} has no ops"));
    }

    // Timed passes, in suite order so that drift hits every op alike.
    // A traced run alternates traced and untraced passes: their ratio is
    // the tracing overhead.
    let mut tr = Tracer::new(args.trace);
    let mut timed = Samples::default();
    let mut untraced = Samples::default();
    let mut reports: Vec<Vec<Result<Report, String>>> = Vec::new();
    let window = Instant::now();
    loop {
        let done = timed.passes();
        let mean = window.elapsed().as_secs_f64() / done.max(1) as f64;
        let in_time = window.elapsed().as_secs_f64() + mean <= args.seconds;
        let wanted = !args.trace || done < TRACED_PASSES;
        if done >= MIN_PASSES && !(in_time && wanted) {
            break;
        }
        let (ms, rep) = pass(suite, &mut tr, done as u32);
        timed.push_pass(ms);
        reports.push(rep);
        if args.trace {
            untraced.push_pass(pass(suite, &mut Tracer::new(false), 0).0);
        }
    }
    let measured_s = window.elapsed().as_secs_f64();
    // Before verification: the other oracle arms and the naive evaluator
    // must not set the peak the workload is charged with.
    let peak_rss_mib = alloc::peak_rss_mib();

    // An op fails when any pass failed it, or when its counters are not
    // the same on every pass.
    let mut failures = Failures(vec![None; ops]);
    for op in 0..ops {
        for p in &reports {
            match (&p[op], &reports[0][op]) {
                (Err(why), _) => failures.note(op, || why.clone()),
                (Ok(this), Ok(first)) if !this.same_counts(first) => {
                    failures.note(op, || "counters differ between passes".into())
                }
                _ => {}
            }
        }
    }

    let pool = ThreadPool::new(threads);
    let mut seen = Observed {
        gen_queries_ms: built.gen_queries_ms,
        gen_data_ms: built.gen_data_ms,
        ..Observed::default()
    };
    let digests = verify_suite(args, suite, &reports[0], &pool, &mut failures, &mut seen);

    if args.print_lock {
        let mut pinned = Lock::default();
        pinned.pin(name, args.seed, fingerprint, &digests);
        print!("{}", pinned.render());
        return Ok(String::new());
    }
    match lock.check(name, args.seed, fingerprint, &digests) {
        Verdict::Unpinned => eprintln!("# inputs.lock: seed {} is not pinned", args.seed),
        Verdict::Match => eprintln!("# inputs.lock: match"),
        Verdict::Mismatch(why) => {
            // Wrong traffic makes every number of the run meaningless.
            (0..ops).for_each(|op| failures.note(op, || format!("inputs.lock: {why}")));
        }
    }
    for (op, why) in failures.0.iter().enumerate() {
        if let Some(why) = why {
            eprintln!("# FAILED op {op} ({}): {why}", suite.label(op));
        }
    }

    let best = timed.best_per_op();
    let suite_ms = measure::suite_ms(&best);
    let all = timed.all_sorted();
    eprintln!(
        "# setups={} passes={} measured_s={measured_s:.2} wall_s={:.2} op_p50_ms={:.4} op_p90_ms={:.4} samples={} live_peak_mib={:.1}",
        setup_s.len(),
        timed.passes(),
        wall.elapsed().as_secs_f64(),
        measure::percentile(&all, 50.0),
        measure::percentile(&all, 90.0),
        all.len(),
        alloc::live_peak_bytes() as f64 / (1u64 << 20) as f64,
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let ok_passes: Vec<Vec<Report>> = reports
            .iter()
            .map(|p| p.iter().map(|r| r.clone().unwrap_or_default()).collect())
            .collect();
        let ledger = layers::per_layer(args.workload, suite, tr.spans(), &ok_passes, &seen, &pool)?;
        let overdrawn = trace::overdrawn_spans(tr.spans());
        let layer_sum: f64 = ["query.extract", "core.prepare", "plangen.run", "exec.run"]
            .iter()
            .map(|l| trace::layer_ms(tr.spans(), l, ops))
            .sum();
        eprintln!(
            "# traced suite_ms={suite_ms:.3} trace_overhead={:.4} layers_over_op={:.4} overdrawn_spans={overdrawn}",
            suite_ms / measure::suite_ms(&untraced.best_per_op()),
            layer_sum / trace::layer_ms(tr.spans(), "op", ops),
        );
        if overdrawn > 0 {
            return Err(format!(
                "{overdrawn} spans last shorter than their children"
            ));
        }
        std::fs::create_dir_all(&args.out)
            .and_then(|()| {
                std::fs::write(
                    args.out.join(format!("trace_{name}.json")),
                    trace::to_json(name, args.seed, tr.spans()),
                )
            })
            .map_err(|e| format!("cannot write the trace under {}: {e}", args.out.display()))?;
        ledger
            .into_iter()
            .zip(layers::PER_LAYER)
            .map(|((name, value), &(_, unit))| (name, value, unit))
            .collect()
    } else {
        let values = [
            suite_ms,
            measure::geomean(&best),
            ops as f64 / (suite_ms / 1e3),
            peak_rss_mib,
            measure::median(&mut setup_s),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };

    // Every execution of a failed op counts as failed.
    let failed = failures.count() * timed.passes();
    Ok(JsonObj::default()
        .bool("correct", failed == 0)
        .int("attempted", (ops * timed.passes()) as u64)
        .int("failed", failed as u64)
        .raw("metrics", &metrics_json(&metrics))
        .finish())
}

fn main() -> ExitCode {
    // Before anything allocates a large buffer or starts a thread.
    let malloc = alloc::tune_malloc();
    let outcome = parse_args().and_then(|args| run(&args, &malloc));
    match outcome {
        Ok(line) => {
            if !line.is_empty() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("pipeline_bench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly what
    /// this program prints.
    #[test]
    fn benchmark_json_names_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').expect("array end") + start;
            &text[start..end]
        };
        let names = |key: &str| -> Vec<(String, String)> {
            let field = |entry: &str, name: &str| {
                let at = entry.find(&format!("\"{name}\"")).expect(name) + name.len() + 2;
                entry[at..]
                    .split('"')
                    .nth(1)
                    .expect("string value")
                    .to_string()
            };
            section(key)
                .split('{')
                .skip(1)
                .map(|e| (field(e, "name"), field(e, "unit")))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(layers::PER_LAYER));
        let workloads: Vec<String> = section("workloads")
            .split("\"name\"")
            .skip(1)
            .map(|e| e.split('"').nth(1).unwrap().to_string())
            .collect();
        let own: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn metrics_render_as_the_contract_asks() {
        let json = metrics_json(&[("suite_ms", 1.25, "ms"), ("setup_s", 0.5, "s")]);
        assert_eq!(
            json,
            r#"{"suite_ms":{"value":1.25,"unit":"ms"},"setup_s":{"value":0.5,"unit":"s"}}"#
        );
    }
}
