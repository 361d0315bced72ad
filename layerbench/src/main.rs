//! Layer-ledger benchmark for the flash disk cache.
//!
//! `layerbench --workload <zipf_read|write_churn|dbt2_hierarchy>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it replays the workload through its public entry
//! point in repeats of identical work until `--seconds` have passed, and
//! prints the end-to-end metrics. With `--trace 1` it runs the traced
//! per-layer ledger instead. Either way the last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! README.md defines every metric.

mod alloc;
mod host;
mod ledger;
mod replay;
mod spans;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use replay::{Buffers, Gate, Repeat};
use workload::{Workload, BATCH};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Repeats per run: at least three, so the determinism check compares
/// repeats and the batch profile filters something.
const MIN_REPEATS: usize = 3;
const MAX_REPEATS: usize = 256;

/// Quantile over the repeats kept for each batch position of the
/// profile the wall-clock metrics come from (see `batch_profile`).
const PROFILE_QUANTILE: f64 = 0.1;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: layerbench --workload <zipf_read|write_churn|dbt2_hierarchy> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| bad("1..=600"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric: name, value, unit, and how it was summarised.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
    /// Part of the result object (otherwise printed in the table only).
    pub in_result: bool,
}

pub fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
        in_result: true,
    }
}

/// Median and quartiles as Python's `statistics.quantiles(n=4)` (the
/// default exclusive method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The value at quantile `p` (nearest rank) of unsorted samples.
pub fn nearest_rank(samples: &mut [u64], p: f64) -> u64 {
    let rank = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(rank).1
}

/// One repeat's batch wall times with host interference filtered out.
///
/// Interference from the host (other tenants' use of the shared
/// last-level cache and memory, vCPU steal, late wake-ups of the
/// engine's workers) only ever adds time, and it comes and goes between
/// repeats. Every repeat replays the same batches on an identically
/// built stack, so batch `i` is the same work in every repeat: the
/// profile keeps, for each position `i`, the `PROFILE_QUANTILE`
/// quantile (nearest rank) of its time over the repeats. A low quantile
/// rather than the minimum, so the profile does not drift with the
/// number of repeats. `batch_ns` holds whole repeats of `per_repeat`
/// batches.
fn batch_profile(batch_ns: &[u64], per_repeat: usize) -> Vec<u64> {
    let repeats = batch_ns.len() / per_repeat;
    let mut column = Vec::with_capacity(repeats);
    (0..per_repeat)
        .map(|i| {
            column.clear();
            column.extend(batch_ns.iter().skip(i).step_by(per_repeat));
            nearest_rank(&mut column, PROFILE_QUANTILE)
        })
        .collect()
}

pub fn print_header(args: &Args, mode: &str) {
    let w = args.workload;
    println!(
        "layerbench {mode}: workload={} seed={} seconds={}",
        w.name(),
        args.seed,
        args.seconds
    );
    println!(
        "host: cpus={} model=\"{}\" commit={} source_digest={}",
        host::cpu_count(),
        host::cpu_model(),
        host::commit(),
        host::source_digest()
    );
    println!(
        "requests per repeat: {} warm-up (untimed, part of setup) + {} timed, \
         batches of {BATCH}, {} shard(s)",
        w.warmup_requests(),
        w.timed_requests(),
        w.shards()
    );
}

/// Prints the metric table, then the result object as the last line.
pub fn finish(metrics: &[Metric], attempted: u64, failed: u64, gate: &Gate) -> ExitCode {
    for p in &gate.problems {
        println!("CORRECTNESS FAILURE: {p}");
    }
    let correct = gate.problems.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    if correct {
        println!("{:<34} {:>16} {:<10} summary", "metric", "value", "unit");
        let mut sep = "";
        for m in metrics {
            println!("{:<34} {:>16.6} {:<10} {}", m.name, m.value, m.unit, m.note);
            if m.in_result {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                let _ = write!(
                    json,
                    "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                );
                sep = ", ";
            }
        }
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end(args: &Args) -> ExitCode {
    print_header(args, "end-to-end");
    let w = args.workload;
    let mut buf = Buffers::new(w, MAX_REPEATS);
    let mut gate = Gate::default();
    let mut reps: Vec<Repeat> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while reps.len() < MIN_REPEATS || (start.elapsed() < budget && reps.len() < MAX_REPEATS) {
        let r = replay::run_repeat(w, args.seed, &mut buf, &mut gate);
        if let Some(first) = reps.first() {
            gate.check(r.modeled.bits() == first.modeled.bits(), || {
                format!(
                    "repeat {} modeled results differ from repeat 0: {:?} vs {:?}",
                    reps.len(),
                    r.modeled,
                    first.modeled
                )
            });
        }
        reps.push(r);
    }

    let n = reps.len();
    let stat = |f: &dyn Fn(&Repeat) -> f64| {
        let v: Vec<f64> = reps.iter().map(f).collect();
        let (q1, med, q3) = quartiles(&v);
        (
            med,
            format!("median of {n} repeats, q1 {q1:.6}, q3 {q3:.6}"),
        )
    };
    // Every repeat times the same batches; the wall-clock metrics come
    // from the filtered profile of one repeat (`batch_profile`).
    let attempted: u64 = reps.iter().map(|r| r.pages).sum();
    let per_repeat = w.timed_requests().div_ceil(BATCH);
    let mut profile = batch_profile(&buf.batch_ns, per_repeat);
    let profile_s = profile.iter().sum::<u64>() as f64 / 1e9;
    let pps = reps[0].pages as f64 / profile_s;
    let raw_pps = attempted as f64 / reps.iter().map(|r| r.serviced_s).sum::<f64>();
    let each = format!("each position the q{PROFILE_QUANTILE} of {n} repeats");
    let pps_note = format!(
        "one repeat's {} pages over its {per_repeat}-batch profile ({each}); \
         unfiltered {raw_pps:.0} over all repeats",
        reps[0].pages
    );
    let (setup, setup_note) = stat(&|r| r.setup_s);
    let (mem, mem_note) = stat(&|r| r.mem_bytes as f64 / (1 << 20) as f64);
    let p50 = nearest_rank(&mut profile, 0.50) as f64 / 1e3;
    let p99 = nearest_rank(&mut profile, 0.99) as f64 / 1e3;
    let beyond = per_repeat - (per_repeat * 99).div_ceil(100);
    let p50_note = format!("median of the {per_repeat}-batch profile ({each})");
    let p99_note =
        format!("p99 of the {per_repeat}-batch profile ({each}); {beyond} batches beyond it");
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let m = reps[0].modeled;
    let modeled = format!("modeled, identical in all {n} repeats");
    let metrics = [
        metric("pages_per_s", pps, "pages/s", pps_note),
        metric("batch_p50_us", p50, "us", p50_note),
        metric("batch_p99_us", p99, "us", p99_note),
        metric("setup_s", setup, "s", setup_note),
        metric("mem_mb", mem, "MiB", mem_note),
        metric("read_miss_rate", m.read_miss_rate, "ratio", modeled.clone()),
        metric(
            "modeled_latency_us_mean",
            m.latency_us_mean,
            "us",
            modeled.clone(),
        ),
        // Printed only: on the engine workloads the p99 request sits on
        // the disk-penalty plateau and reads exactly the configured
        // penalty for every seed.
        Metric {
            in_result: false,
            ..metric(
                "modeled_latency_us_p99",
                m.latency_us_p99,
                "us",
                format!("{modeled}; exact p99 of {} requests", w.timed_requests()),
            )
        },
        metric("modeled_time_s", m.time_s, "s", modeled.clone()),
        metric(
            "programs_per_page",
            m.programs_per_page,
            "1/page",
            modeled.clone(),
        ),
        metric("erases_per_mpage", m.erases_per_mpage, "1/Mpage", modeled),
    ];
    let mut metrics = Vec::from(metrics);
    // Printed only: 0 on a healthy run; the result object carries it as
    // `failed` over `attempted`.
    metrics.push(Metric {
        in_result: false,
        ..metric(
            "failed_op_ratio",
            failed as f64 / attempted as f64,
            "ratio",
            format!("{failed} failed of {attempted} page ops attempted"),
        )
    });
    finish(&metrics, attempted, failed, &gate)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        ledger::run(&args)
    } else {
        end_to_end(&args)
    }
}
