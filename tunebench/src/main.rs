//! tunebench — time to validated winners for the swATOP reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path tunebench/Cargo.toml -- \
//!     --workload gemm_sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run is a closed loop with a single client: it starts fresh
//! processes of itself ("repetitions"), one after another, each of which
//! calibrates the model and tunes every instance of the workload, as a
//! user tuning a network from the command line would. Repetitions run
//! until `--seconds` have passed; then one more runs at `--jobs 1` to check
//! that the winners do not depend on the job count, and short set-up-only
//! processes bring the set-up samples to at least seven. The last line of
//! standard output is the JSON result; `--trace 1` alternates untraced
//! and traced repetitions and reports the per-layer metrics instead.

mod bench;
mod rep;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use workload::Workload;

const USAGE: &str = "usage: tunebench --workload <gemm_sweep|resnet_infer_b1|resnet_train_b8> \
--seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line. `--rep` and `--setup-only` select the child modes
/// the parent process spawns. `--jobs` is accepted only with `--rep`: the
/// parent always tunes at `jobs = nproc` and asks for the `jobs = 1`
/// check itself.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rep: bool,
    setup_only: bool,
    jobs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::GemmSweep,
        seed: 0,
        seconds: 10,
        trace: false,
        rep: false,
        setup_only: false,
        jobs: swatop::tuner::pool::available_jobs(),
    };
    let mut jobs = None;
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = num(value()?)?,
            "--seconds" => a.seconds = num(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: {v:?} is not 0 or 1")),
                }
            }
            "--jobs" => {
                jobs = Some(
                    usize::try_from(num(value()?)?)
                        .map_err(|e| e.to_string())?
                        .max(1),
                )
            }
            "--rep" => a.rep = true,
            "--setup-only" => a.setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(j) = jobs {
        if !a.rep {
            return Err("--jobs is only accepted together with --rep".into());
        }
        a.jobs = j;
    }
    if !a.setup_only {
        a.workload = workload.ok_or("--workload is required")?;
    }
    Ok(a)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tunebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.setup_only {
        let (_, t) = rep::setup(start);
        let mut r = rep::RepResult::default();
        r.metrics.insert("setup_s".into(), t.as_secs_f64());
        println!("{}", rep::to_json(&r));
        Ok(())
    } else if args.rep {
        rep::run(start, args.workload, args.seed, args.jobs, args.trace)
            .map(|r| println!("{}", rep::to_json(&r)))
    } else {
        bench::run(args.workload, args.seed, args.seconds, args.trace)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tunebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let v: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&v)
    }

    #[test]
    fn jobs_is_only_accepted_for_a_repetition() {
        let run = "--workload gemm_sweep --seed 1 --seconds 10 --trace 0";
        assert!(args(run).is_ok());
        assert!(args(&format!("{run} --jobs 1")).is_err());
        let rep = args(&format!("{run} --rep --jobs 1")).unwrap();
        assert_eq!(rep.jobs, 1);
        let rep = args(&format!("{run} --rep")).unwrap();
        assert_eq!(rep.jobs, swatop::tuner::pool::available_jobs());
    }
}
