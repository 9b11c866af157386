//! `--calibrate N`: how much the end-to-end figures move between runs of
//! the same code. Runs every workload `N` times on one seed (each run a
//! fresh process, exactly as the driver runs it) and once on each of
//! three other seeds, and prints both tables and the bounds they imply
//! as one JSON document — committed as `benchmark/calibration.json`,
//! which the `end_to_end` list of `BENCHMARK.json` is copied from.
//!
//! The workloads take turns, so each one's runs are spread over the
//! whole calibration and see whatever the machine does in that time.

use crate::metrics::MEASURED;
use crate::stats;
use crate::workload::SPECS;
use cpvr_types::json::{self, Value};
use std::io;
use std::process::Command;

const SAME_SEED: u64 = 1;
const OTHER_SEEDS: [u64; 3] = [2, 3, 4];
/// A bound is this many times the worst same-seed spread …
const BOUND_OVER_SPREAD: f64 = 2.0;
/// … but never tighter than this …
const BOUND_FLOOR: f64 = 0.05;
/// … and a figure that would need more than this carries no bound at
/// all: it is reported per layer instead.
const BOUND_CEILING: f64 = 0.10;

/// Runs one workload once in a child process and returns everything its
/// untraced pass measured, in `MEASURED` order.
fn run_once(workload: &str, seed: u64, seconds: f64) -> io::Result<Vec<f64>> {
    let exe = std::env::current_exe()?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let bad = |why: &str| {
        io::Error::other(format!(
            "{workload} seed {seed}: {why}\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        ))
    };
    if !out.status.success() {
        return Err(bad("run exited with an error"));
    }
    let measured = stdout
        .lines()
        .find_map(|l| l.strip_prefix("measured "))
        .ok_or_else(|| bad("no `measured` line"))?;
    let result = json::parse(measured).map_err(|e| bad(&e.to_string()))?;
    if result.field("correct").ok() != Some(&Value::Bool(true)) {
        return Err(bad("run reported incorrect outputs"));
    }
    let metrics = result.field("metrics").map_err(|e| bad(&e.to_string()))?;
    MEASURED
        .iter()
        .map(|(name, _)| match metrics.field(name)?.field("value")? {
            Value::F64(v) => Ok(*v),
            Value::U64(v) => Ok(*v as f64),
            other => Err(json::JsonError::new(format!("{name} is {other:?}"))),
        })
        .collect::<Result<_, _>>()
        .map_err(|e| bad(&e.to_string()))
}

/// Interquartile range over median, the driver's measure of spread.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = stats::quartiles(values);
    (q3 - q1) / stats::median(values)
}

/// Summary of one metric over a set of runs.
fn summarize(values: &[f64]) -> Value {
    let (q1, q3) = stats::quartiles(values);
    let median = stats::median(values);
    let (min, max) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    Value::Object(vec![
        ("median".into(), Value::F64(median)),
        ("q1".into(), Value::F64(q1)),
        ("q3".into(), Value::F64(q3)),
        ("iqr_over_median".into(), Value::F64(spread(values))),
        ("range_over_median".into(), Value::F64((max - min) / median)),
        (
            "values".into(),
            Value::Array(values.iter().map(|&v| Value::F64(v)).collect()),
        ),
    ])
}

fn column(runs: &[Vec<f64>], metric: usize) -> Vec<f64> {
    runs.iter().map(|r| r[metric]).collect()
}

fn table(runs: &[Vec<f64>]) -> Value {
    Value::Object(
        MEASURED
            .iter()
            .enumerate()
            .map(|(i, (name, _))| ((*name).to_string(), summarize(&column(runs, i))))
            .collect(),
    )
}

/// The bound each figure's worst same-seed spread implies.
fn bounds(same_seed: &[Vec<Vec<f64>>]) -> Value {
    Value::Object(
        MEASURED
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                let (worst, on) = SPECS
                    .iter()
                    .zip(same_seed)
                    .map(|(spec, runs)| (spread(&column(runs, i)), spec.name))
                    .fold((0.0, ""), |a, b| if b.0 > a.0 { b } else { a });
                let wanted = BOUND_OVER_SPREAD * worst;
                (
                    (*name).to_string(),
                    Value::Object(vec![
                        ("worst_spread".into(), Value::F64(worst)),
                        ("on".into(), Value::Str(on.into())),
                        (
                            "bound".into(),
                            Value::F64(wanted.clamp(BOUND_FLOOR, BOUND_CEILING)),
                        ),
                        ("end_to_end".into(), Value::Bool(wanted <= BOUND_CEILING)),
                    ]),
                )
            })
            .collect(),
    )
}

pub fn run(runs: usize, seconds: f64) -> io::Result<()> {
    if runs < 2 {
        return Err(io::Error::other("calibration needs at least two runs"));
    }
    let mut same: Vec<Vec<Vec<f64>>> = vec![Vec::new(); SPECS.len()];
    let mut across = same.clone();
    for i in 0..runs {
        for (spec, same) in SPECS.iter().zip(&mut same) {
            eprintln!("calibrate: {} run {}/{runs}", spec.name, i + 1);
            same.push(run_once(spec.name, SAME_SEED, seconds)?);
        }
    }
    for seed in OTHER_SEEDS {
        for (spec, across) in SPECS.iter().zip(&mut across) {
            eprintln!("calibrate: {} seed {seed}", spec.name);
            across.push(run_once(spec.name, seed, seconds)?);
        }
    }
    let workloads = SPECS
        .iter()
        .zip(same.iter().zip(&across))
        .map(|(spec, (same, across))| {
            (
                spec.name.to_string(),
                Value::Object(vec![
                    ("same_seed".into(), table(same)),
                    ("across_seeds".into(), table(across)),
                ]),
            )
        })
        .collect();
    let doc = Value::Object(vec![
        ("runs_per_workload".into(), Value::U64(runs as u64)),
        ("seconds".into(), Value::F64(seconds)),
        ("cores".into(), Value::U64(crate::sys::nproc() as u64)),
        ("same_seed".into(), Value::U64(SAME_SEED)),
        (
            "other_seeds".into(),
            Value::Array(OTHER_SEEDS.iter().map(|&s| Value::U64(s)).collect()),
        ),
        ("workloads".into(), Value::Object(workloads)),
        ("bounds".into(), bounds(&same)),
    ]);
    println!("{}", doc.render_pretty());
    Ok(())
}
