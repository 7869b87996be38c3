//! The top-level run: spawn repetitions, check them against each other,
//! and print the result.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::rep::{self, RepResult};
use crate::workload::Workload;

/// `(name, unit, better)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("tune_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cycles", "cycles", "lower"),
    ("sim_pct_peak", "%", "higher"),
    ("validated_frac", "ratio", "higher"),
];

/// `(name, unit, better)` of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("model.calibrate_s", "s", "lower"),
    ("model.mape_pct", "%", "lower"),
    ("model.rank_corr", "ratio", "higher"),
    ("scheduler.enumerate_s", "s", "lower"),
    ("scheduler.points", "count", "lower"),
    ("scheduler.candidates", "count", "lower"),
    ("scheduler.yield", "ratio", "higher"),
    ("scheduler.us_per_candidate", "us", "lower"),
    ("tuner.ladder_s", "s", "lower"),
    ("tuner.screened", "count", "lower"),
    ("tuner.measured", "count", "lower"),
    ("tuner.measured_frac", "ratio", "lower"),
    ("tuner.failed", "count", "lower"),
    ("tuner.retried", "count", "lower"),
    ("tuner.memo_hit_ratio", "ratio", "higher"),
    ("tuner.parallelism", "ratio", "higher"),
    ("validate.s", "s", "lower"),
    ("validate.calls", "count", "lower"),
    ("validate.quarantined", "count", "lower"),
    ("validate.static_s", "s", "lower"),
    ("validate.reference_s", "s", "lower"),
    ("validate.functional_s", "s", "lower"),
    ("codegen.emit_s", "s", "lower"),
    ("codegen.emit_bytes", "bytes", "lower"),
    ("other_s", "s", "lower"),
    ("ledger.tune_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("failed.empty_space", "count", "lower"),
    ("failed.all_failed", "count", "lower"),
    ("failed.quarantined", "count", "lower"),
];

/// Metrics every repetition of one seed must reproduce exactly.
const EXACT: &[&str] = &["sim_cycles", "sim_pct_peak", "validated_frac"];
/// Set-up samples per untraced run; the median is reported. A single
/// sample spreads by well over 10% on a shared host.
const SETUP_SAMPLES: usize = 7;
/// No repetition may start once a run is this old (the run must end
/// within 180 s).
const RUN_BUDGET: Duration = Duration::from_secs(150);

/// Median; the mean of the middle two for an even count.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Start this executable in a child mode and return its parsed last line.
/// The child is killed if the run's budget runs out.
fn spawn(args: &[String], deadline: Instant) -> Result<RepResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if Instant::now() > deadline + Duration::from_secs(25) {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!("repetition {args:?} overran the run budget"));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("read child stdout: {e}"))?;
    if !status.success() {
        return Err(format!("repetition {args:?} failed: {status}"));
    }
    let line = out
        .lines()
        .last()
        .ok_or_else(|| format!("repetition {args:?} printed nothing"))?;
    rep::from_json(line)
}

/// Run the benchmark and print its result.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    let jobs = swatop::tuner::pool::available_jobs();
    let start = Instant::now();
    let deadline = start + RUN_BUDGET;
    let rep_args = |jobs: usize, traced: bool| -> Vec<String> {
        let mut v: Vec<String> = ["--rep", "--workload", workload.name()]
            .map(String::from)
            .to_vec();
        v.extend([
            "--seed".into(),
            seed.to_string(),
            "--jobs".into(),
            jobs.to_string(),
        ]);
        v.extend(["--trace".into(), if traced { "1" } else { "0" }.into()]);
        v
    };
    let mut timed: Vec<RepResult> = Vec::new();
    let mut traced: Vec<RepResult> = Vec::new();
    let mut last = Duration::ZERO;
    // Repetitions until the measuring time is used up, keeping room for
    // the serial check: closed loop, one client, one process at a time.
    while timed.is_empty()
        || (start.elapsed() < Duration::from_secs(seconds) && Instant::now() + 2 * last < deadline)
    {
        let t = Instant::now();
        timed.push(spawn(&rep_args(jobs, false), deadline)?);
        if trace {
            traced.push(spawn(&rep_args(jobs, true), deadline)?);
        }
        last = t.elapsed();
    }
    let serial = spawn(&rep_args(1, false), deadline)?;
    let mut setup: Vec<f64> = timed
        .iter()
        .chain(&traced)
        .chain([&serial])
        .map(|r| r.metrics["setup_s"])
        .collect();
    // Only an untraced run reports set-up time.
    while !trace && setup.len() < SETUP_SAMPLES {
        setup.push(spawn(&["--setup-only".to_string()], deadline)?.metrics["setup_s"]);
    }

    let all: Vec<&RepResult> = timed.iter().chain(&traced).chain([&serial]).collect();
    let first = all[0];
    let mut problems = Vec::new();
    for r in &all[1..] {
        if r.digest() != first.digest() {
            problems.push(format!(
                "winner digest {} != {}",
                r.digest(),
                first.digest()
            ));
        }
        if r.failures != first.failures {
            problems.push("failure lists differ between repetitions".into());
        }
        for k in EXACT {
            if r.metrics[*k] != first.metrics[*k] {
                problems.push(format!("{k}: {} != {}", r.metrics[*k], first.metrics[*k]));
            }
        }
    }

    println!(
        "tunebench: {} seed {seed}: {} repetition(s) at jobs {jobs}{}, 1 at jobs 1, {} set-up sample(s)",
        workload.name(),
        timed.len(),
        if trace { format!(" + {} traced", traced.len()) } else { String::new() },
        setup.len()
    );
    for (id, point, cycles) in &first.winners {
        println!("winner {id} point {point} cycles {cycles}");
    }
    for (reason, id) in &first.failures {
        println!("failed {} {id}", reason.name());
    }
    println!("digest {}", first.digest());
    for p in &problems {
        println!("MISMATCH {p}");
    }

    let med = |rs: &[RepResult], k: &str| -> Result<f64, String> {
        let v: Vec<f64> = rs
            .iter()
            .map(|r| r.metrics.get(k).copied().ok_or(format!("no metric {k}")))
            .collect::<Result<_, _>>()?;
        Ok(median(&v))
    };
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if trace {
        let untraced_tune = med(&timed, "tune_s")?;
        let traced_tune = med(&traced, "tune_s")?;
        for &(name, unit, _) in PER_LAYER {
            let v = match name {
                "trace.overhead_s" => traced_tune - untraced_tune,
                "trace.overhead_pct" => 100.0 * (traced_tune - untraced_tune) / untraced_tune,
                _ => med(&traced, name)?,
            };
            metrics.push((name, unit, v));
        }
        let l = |k: &str| med(&traced, k);
        println!(
            "ledger: scheduler {:.3} s + tuner {:.3} s + validate {:.3} s + codegen {:.3} s + other {:.3} s = {:.3} s traced (untraced tune_s {:.3} s)",
            l("scheduler.enumerate_s")?, l("tuner.ladder_s")?, l("validate.s")?, l("codegen.emit_s")?, l("other_s")?, l("ledger.tune_s")?, untraced_tune
        );
    } else {
        for &(name, unit, _) in END_TO_END {
            let v = if name == "setup_s" {
                median(&setup)
            } else {
                med(&timed, name)?
            };
            metrics.push((name, unit, v));
        }
    }
    let attempted: usize = all.iter().map(|r| r.requests).sum();
    let failed: usize = all.iter().map(|r| r.requests_failed).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                sw26010::json::fmt_f64(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::json::{parse, Json};

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_and_counts_are_within_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} used twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(matches!(*better, "lower" | "higher"));
        }
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
    }

    /// The metric tables here and `BENCHMARK.json` must agree exactly.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let j = parse(&text).unwrap();
        let table = |key: &str| -> Vec<(String, String, String)> {
            j.field(key)
                .unwrap()
                .as_arr(key)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.field(k).unwrap().as_str(k).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
                .collect()
        };
        assert_eq!(table("end_to_end"), ours(END_TO_END));
        assert_eq!(table("per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = j
            .field("workloads")
            .unwrap()
            .as_arr("workloads")
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str("name").unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        for m in j.field("end_to_end").unwrap().as_arr("e2e").unwrap() {
            let bound = m.field("bound").unwrap().as_f64("bound").unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(matches!(j.field("run_seconds").unwrap(), Json::Num(_)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
