//! `perfbench --workload bfs|msbfs|mcl --seed N --seconds S --trace 0|1`
//!
//! `--trace 0` runs the timed closed loop and reports the end-to-end
//! metrics; `--trace 1` runs the traced loop and reports the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

use gblas_perfbench::runner::{self, Budget, Metric};
use gblas_perfbench::workload::{Bench, Sizes, Workload};
use gblas_perfbench::{heap, stamp};
use std::time::Instant;

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("bfs, msbfs or mcl"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn finish(metrics: &[Metric], tally: &runner::Tally) -> Result<(), String> {
    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    println!(
        "fail_frac {} ({} of {} calls failed)",
        tally.fail_frac(),
        tally.failed,
        tally.attempted
    );
    println!("{}", json_result(tally.failed == 0, tally.attempted, tally.failed, metrics));
    Ok(())
}

fn timed(args: &Args, sizes: Sizes) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(Bench::setup(args.workload, sizes, args.seed)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let bench = bench.expect("at least one set-up");
    let t = runner::run_timed(&bench, Budget::timed(args.seconds));
    let rss = heap::peak_rss_mb().ok_or("VmHWM unavailable")?;
    let rows = t.end_to_end(&setups, bench.queries_per_call(), rss)?;
    for row in &rows {
        let (name, value, unit) = &row.metric;
        let n = row.samples.map(|n| format!("(n={n})")).unwrap_or_default();
        let gate = if row.gated { "" } else { " [printed only]" };
        println!("{name:<16} {value:>14.6} {unit:<4} {n}{gate}");
    }
    let gated: Vec<Metric> = rows.into_iter().filter(|r| r.gated).map(|r| r.metric).collect();
    finish(&gated, &t.tally)
}

fn traced(args: &Args, sizes: Sizes) -> Result<(), String> {
    let bench = Bench::setup(args.workload, sizes, args.seed)?;
    let layers = runner::run_traced(&bench, Budget::traced(args.seconds));
    let metrics = layers.metrics();
    println!("traced calls per backend: {}", layers.shared.calls);
    println!("simulated phases seen: {}", layers.dist.sim.phase_names().join(" "));
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    finish(&metrics, &layers.tally)
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let knobs = stamp::knobs_set();
    if !knobs.is_empty() {
        return Err(format!(
            "refusing to run with {} set: each knob changes the program being measured",
            knobs.join(", ")
        ));
    }
    for (key, value) in stamp::stamp() {
        println!("stamp {key}: {value}");
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let sizes = Sizes::standard(args.workload);
    if args.trace {
        traced(&args, sizes)
    } else {
        timed(&args, sizes)
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
