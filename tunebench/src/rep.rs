//! One repetition: a fresh process that calibrates, then tunes every
//! instance of a workload to a validated winner and emits its C.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sw26010::{CoreGroup, ExecMode, MachineConfig};
use swatop::model::memo::MemoCache;
use swatop::model::GemmModel;
use swatop::scheduler::{Candidate, Operator, Scheduler};
use swatop::tuner::{model_rank_jobs, tiered_tune_validated, TuneOptions, WinnerValidator};
use swatop_ir::MemRole;

use crate::trace::{Layer, Ledger, Tracer};
use crate::workload::{plan, Workload};

/// Why an instance ended without a validated winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// The method is applicable but its schedule space has no legal point.
    EmptySpace,
    /// Every measured candidate failed (the tuner returned no outcome).
    AllFailed,
    /// Winners were quarantined by the validator and no fallback passed.
    Quarantined,
}

impl Failure {
    pub fn name(self) -> &'static str {
        match self {
            Failure::EmptySpace => "empty_space",
            Failure::AllFailed => "all_failed",
            Failure::Quarantined => "quarantined",
        }
    }
}

/// What a repetition reports to the parent process.
#[derive(Debug, Default)]
pub struct RepResult {
    /// Metric name → value, in the units `BENCHMARK.json` states.
    pub metrics: BTreeMap<String, f64>,
    /// `(instance id, point index, cycles)` of every winner, sorted by id.
    pub winners: Vec<(String, usize, u64)>,
    /// `(reason, instance id)` of every instance without a winner.
    pub failures: Vec<(Failure, String)>,
    pub requests: usize,
    /// Requests none of whose instances produced a validated winner.
    pub requests_failed: usize,
}

impl RepResult {
    /// FNV-1a over the sorted winner list: equal digests mean every
    /// instance picked the same schedule point at the same cycles.
    pub fn digest(&self) -> String {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for (id, point, cycles) in &self.winners {
            for b in format!("{id}:{point}:{cycles};").bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
            }
        }
        format!("{h:016x}")
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Calibrate the model only: the set-up a CLI user pays before tuning.
/// `start` is the process start.
pub fn setup(start: Instant) -> (MachineConfig, Duration) {
    let cfg = MachineConfig::default();
    GemmModel::cached(&cfg);
    (cfg, start.elapsed())
}

/// Per-layer counters of a traced repetition.
#[derive(Default)]
struct Counters {
    points: u64,
    candidates: u64,
    screened: u64,
    measured: u64,
    failed: u64,
    retried: u64,
    ladder_cpu: Duration,
    memo_hits: u64,
    memo_misses: u64,
    validate_calls: u64,
    quarantined: u64,
    emit_bytes: u64,
    /// (predicted, measured) pairs over all instances, and each
    /// instance's rank correlation.
    accuracy: Vec<(f64, f64)>,
    rank_corrs: Vec<f64>,
}

/// Run one repetition of `workload`. `start` is the process start; the
/// model must not have been calibrated yet.
pub fn run(
    start: Instant,
    workload: Workload,
    seed: u64,
    jobs: usize,
    traced: bool,
) -> Result<RepResult, String> {
    let (cfg, setup_time) = setup(start);
    let tune_start = Instant::now();
    let tracer = RefCell::new(Tracer::new(traced));
    let root = tracer.borrow_mut().open(Layer::Tune, None);
    let plan = plan(workload, seed);
    let opts = TuneOptions::with_jobs(jobs);
    let mut c = Counters::default();
    let mut best: Vec<Option<u64>> = vec![None; plan.requests.len()];
    let mut flops = vec![0u64; plan.requests.len()];
    let mut out = RepResult {
        requests: plan.requests.len(),
        ..RepResult::default()
    };
    let mut model_time = Duration::ZERO;

    for (k, inst) in plan.instances.iter().enumerate() {
        let op = inst.op.as_ref();
        flops[inst.request] = op.flops();
        let span = tracer.borrow_mut().open(Layer::Instance, Some(k));
        let s = tracer.borrow_mut().open(Layer::Scheduler, Some(k));
        let cands = Scheduler::new(cfg.clone()).enumerate(op);
        tracer.borrow_mut().close(s);
        if traced {
            c.points += op.space().size() as u64;
            c.candidates += cands.len() as u64;
        }
        if cands.is_empty() {
            out.failures.push((Failure::EmptySpace, inst.id.clone()));
            tracer.borrow_mut().close(span);
            continue;
        }
        let rejected = Cell::new(0u64);
        let calls = Cell::new(0u64);
        let validator = |_: usize, cand: &Candidate| {
            calls.set(calls.get() + 1);
            let verdict = if traced {
                validate_traced(&cfg, op, cand, &tracer, k)
            } else {
                swatop::ops::validate_candidate(&cfg, op, cand)
            };
            rejected.set(rejected.get() + u64::from(verdict.is_err()));
            verdict
        };
        let memo = MemoCache::global();
        let (h0, m0) = (memo.hits(), memo.misses());
        let t = tracer.borrow_mut().open(Layer::Tuner, Some(k));
        let outcome =
            tiered_tune_validated(&cfg, &cands, &opts, Some(&validator as &WinnerValidator));
        tracer.borrow_mut().close(t);
        c.memo_hits += memo.hits() - h0;
        c.memo_misses += memo.misses() - m0;
        c.validate_calls += calls.get();
        c.quarantined += rejected.get();
        let Some(o) = outcome else {
            let reason = if rejected.get() > 0 {
                Failure::Quarantined
            } else {
                Failure::AllFailed
            };
            out.failures.push((reason, inst.id.clone()));
            tracer.borrow_mut().close(span);
            continue;
        };
        let g = tracer.borrow_mut().open(Layer::Codegen, Some(k));
        let code = cands[o.best].exe.emit_c();
        tracer.borrow_mut().close(g);
        tracer.borrow_mut().close(span);
        std::hint::black_box(&code);
        let cycles = o.cycles.get();
        best[inst.request] = Some(best[inst.request].map_or(cycles, |b: u64| b.min(cycles)));
        out.winners
            .push((inst.id.clone(), cands[o.best].point_index, cycles));
        if traced {
            c.emit_bytes += code.len() as u64;
            c.screened += o.screened as u64;
            c.measured += o.executed as u64;
            c.failed += o.failed as u64;
            c.retried += o.retried;
            c.ladder_cpu += o.cpu;
            // Model accuracy, measured after the instance's timed tune: the
            // screen already memoised every sub-cost this ranking needs.
            let m = tracer.borrow_mut().open(Layer::Model, None);
            let t0 = Instant::now();
            let pairs: Vec<(f64, f64)> = model_rank_jobs(&cfg, &cands, jobs)
                .into_iter()
                .filter_map(|(i, pred)| o.all_cycles[i].map(|m| (pred, m.get() as f64)))
                .collect();
            model_time += t0.elapsed();
            tracer.borrow_mut().close(m);
            c.rank_corrs
                .extend(swatop::telemetry::rank_correlation(&pairs));
            c.accuracy.extend(pairs);
        }
    }
    tracer.borrow_mut().close(root);
    let tune_time = tune_start.elapsed() - model_time;

    out.winners.sort();
    out.failures.sort();
    out.requests_failed = best.iter().filter(|b| b.is_none()).count();
    let sim_cycles: u64 = best.iter().flatten().sum();
    let total_flops: u64 = flops
        .iter()
        .zip(&best)
        .filter(|(_, b)| b.is_some())
        .map(|(f, _)| f)
        .sum();
    let attempted = plan.instances.len();
    let validated = out.winners.len();
    let m = &mut out.metrics;
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("setup_s", setup_time.as_secs_f64());
    put("tune_s", tune_time.as_secs_f64());
    put("peak_rss_mb", peak_rss_mb());
    put("sim_cycles", sim_cycles as f64);
    put(
        "sim_pct_peak",
        100.0 * cfg.efficiency(total_flops, sw26010::Cycles(sim_cycles)),
    );
    put("validated_frac", validated as f64 / attempted as f64);
    if traced {
        let spans = tracer.borrow();
        let l = Ledger::from_spans(spans.spans(), attempted)?;
        let ids: Vec<String> = plan.instances.iter().map(|i| i.id.clone()).collect();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{seed}-trace.json", workload.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, crate::trace::chrome_trace(spans.spans(), &ids)))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "tunebench: {} spans written to {}",
            spans.spans().len(),
            path.display()
        );
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let count = |r: Failure| out.failures.iter().filter(|(f, _)| *f == r).count() as f64;
        put("model.calibrate_s", setup_time.as_secs_f64());
        put(
            "model.mape_pct",
            swatop::telemetry::mape(&c.accuracy).unwrap_or(0.0),
        );
        put("model.rank_corr", mean(&c.rank_corrs));
        put("scheduler.enumerate_s", secs(l.scheduler));
        put("scheduler.points", c.points as f64);
        put("scheduler.candidates", c.candidates as f64);
        put(
            "scheduler.yield",
            ratio(c.candidates as f64, c.points as f64),
        );
        put(
            "scheduler.us_per_candidate",
            ratio(1e6 * secs(l.scheduler), c.candidates as f64),
        );
        put("tuner.ladder_s", secs(l.tuner));
        put("tuner.screened", c.screened as f64);
        put("tuner.measured", c.measured as f64);
        put(
            "tuner.measured_frac",
            ratio(c.measured as f64, c.screened as f64),
        );
        put("tuner.failed", c.failed as f64);
        put("tuner.retried", c.retried as f64);
        put(
            "tuner.memo_hit_ratio",
            ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
        );
        put(
            "tuner.parallelism",
            ratio(c.ladder_cpu.as_secs_f64(), secs(l.tuner)),
        );
        put("validate.s", secs(l.validate));
        put("validate.calls", c.validate_calls as f64);
        put("validate.quarantined", c.quarantined as f64);
        put("validate.static_s", secs(l.validate_static));
        put("validate.reference_s", secs(l.validate_reference));
        put("validate.functional_s", secs(l.validate_functional));
        put("codegen.emit_s", secs(l.codegen));
        put("codegen.emit_bytes", c.emit_bytes as f64);
        put("other_s", secs(l.other));
        put("ledger.tune_s", secs(l.tune));
        put(
            "failed_frac",
            (attempted - validated) as f64 / attempted as f64,
        );
        put("failed.empty_space", count(Failure::EmptySpace));
        put("failed.all_failed", count(Failure::AllFailed));
        put("failed.quarantined", count(Failure::Quarantined));
    }
    Ok(out)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// [`swatop::ops::validate_candidate`] split into timed parts from the same
/// public calls, in the same order: the static check, the golden reference
/// (inputs and reference output) and, as the remainder, functional
/// execution and comparison. The verdict is the one `validate_candidate`
/// gives, failures included.
fn validate_traced(
    cfg: &MachineConfig,
    op: &dyn Operator,
    cand: &Candidate,
    tracer: &RefCell<Tracer>,
    k: usize,
) -> Result<(), String> {
    let v = tracer.borrow_mut().open(Layer::Validate, Some(k));
    let verdict = (|| {
        let mut clean = cfg.clone();
        clean.fault = None;
        let s = tracer.borrow_mut().open(Layer::ValidateStatic, Some(k));
        let statics = swatop::optimizer::verify::verify_message(&cand.exe, &clean);
        tracer.borrow_mut().close(s);
        statics.map_err(|msg| format!("static: {msg}"))?;
        let mut cg = CoreGroup::new(clean, ExecMode::Functional);
        let binding = swatop::interp::instantiate(&mut cg, &cand.exe);
        let r = tracer.borrow_mut().open(Layer::ValidateReference, Some(k));
        let inputs = op.input_data(&cand.exe.program);
        tracer.borrow_mut().close(r);
        let input_ids = cand.exe.program.bufs_with_role(MemRole::Input);
        assert_eq!(inputs.len(), input_ids.len(), "input count mismatch");
        let fail = |e| format!("differential: functional execution failed: {e}");
        for (id, data) in input_ids.iter().zip(&inputs) {
            cg.mem.write(binding.bufs[id.0], 0, data).map_err(fail)?;
        }
        swatop::interp::execute(&mut cg, &cand.exe, &binding).map_err(fail)?;
        let out = cand.exe.program.bufs_with_role(MemRole::Output);
        assert_eq!(out.len(), 1, "operators declare exactly one output");
        let got = cg.mem.buffer(binding.bufs[out[0].0]);
        let r = tracer.borrow_mut().open(Layer::ValidateReference, Some(k));
        let expect = op.reference_output(&inputs);
        tracer.borrow_mut().close(r);
        let diff = swtensor::compare::max_abs_diff(got, &expect);
        let tol = swatop::ops::verify_tolerance(op.flops());
        if !diff.is_finite() || diff > tol {
            return Err(format!(
                "differential: max |err| {diff:.3e} exceeds tolerance {tol:.3e}"
            ));
        }
        Ok(())
    })();
    tracer.borrow_mut().close(v);
    verdict
}

/// The one-line JSON a repetition prints for the parent process.
pub fn to_json(r: &RepResult) -> String {
    use sw26010::json::{escape_json, fmt_f64};
    let mut s = String::from("{\"metrics\":{");
    for (i, (k, v)) in r.metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\":{}",
            if i > 0 { "," } else { "" },
            escape_json(k),
            fmt_f64(*v)
        );
    }
    let _ = write!(
        s,
        "}},\"requests\":{},\"requests_failed\":{},\"winners\":[",
        r.requests, r.requests_failed
    );
    for (i, (id, p, c)) in r.winners.iter().enumerate() {
        let _ = write!(
            s,
            "{}[\"{}\",{p},{c}]",
            if i > 0 { "," } else { "" },
            escape_json(id)
        );
    }
    s.push_str("],\"failures\":[");
    for (i, (f, id)) in r.failures.iter().enumerate() {
        let _ = write!(
            s,
            "{}[\"{}\",\"{}\"]",
            if i > 0 { "," } else { "" },
            f.name(),
            escape_json(id)
        );
    }
    s.push_str("]}");
    s
}

/// Parse [`to_json`] output back.
pub fn from_json(text: &str) -> Result<RepResult, String> {
    use sw26010::json::{parse, Json};
    let j = parse(text)?;
    let mut r = RepResult::default();
    let Json::Obj(fields) = j.field("metrics")? else {
        return Err("metrics: expected an object".into());
    };
    for (k, v) in fields {
        r.metrics.insert(k.clone(), v.as_f64(k)?);
    }
    r.requests = j.field("requests")?.as_u64("requests")? as usize;
    r.requests_failed = j.field("requests_failed")?.as_u64("requests_failed")? as usize;
    for w in j.field("winners")?.as_arr("winners")? {
        let [id, p, c] = w.as_arr("winner")? else {
            return Err("winner: expected [id, point, cycles]".into());
        };
        r.winners.push((
            id.as_str("id")?.to_string(),
            p.as_u64("point")? as usize,
            c.as_u64("cycles")?,
        ));
    }
    for f in j.field("failures")?.as_arr("failures")? {
        let [reason, id] = f.as_arr("failure")? else {
            return Err("failure: expected [reason, id]".into());
        };
        let reason = match reason.as_str("reason")? {
            "empty_space" => Failure::EmptySpace,
            "all_failed" => Failure::AllFailed,
            "quarantined" => Failure::Quarantined,
            other => return Err(format!("unknown failure reason {other:?}")),
        };
        r.failures.push((reason, id.as_str("id")?.to_string()));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swatop::ops::MatmulOp;

    #[test]
    fn json_round_trip() {
        let mut r = RepResult {
            requests: 3,
            requests_failed: 1,
            ..RepResult::default()
        };
        r.metrics.insert("tune_s".into(), 1.25);
        r.metrics.insert("sim_cycles".into(), 123456.0);
        r.winners.push(("a.explicit".into(), 7, 99));
        r.failures.push((Failure::EmptySpace, "a.implicit".into()));
        let back = from_json(&to_json(&r)).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.winners, r.winners);
        assert_eq!(back.failures, r.failures);
        assert_eq!((back.requests, back.requests_failed), (3, 1));
        assert_eq!(back.digest(), r.digest());
    }

    /// Runs `check` under the span tree a repetition opens around the
    /// validator, and returns the ledger of that tree.
    fn traced(check: impl FnOnce(&RefCell<Tracer>)) -> crate::trace::Ledger {
        let tracer = RefCell::new(Tracer::new(true));
        let root = tracer.borrow_mut().open(Layer::Tune, None);
        let inst = tracer.borrow_mut().open(Layer::Instance, Some(0));
        let t = tracer.borrow_mut().open(Layer::Tuner, Some(0));
        check(&tracer);
        tracer.borrow_mut().close(t);
        tracer.borrow_mut().close(inst);
        tracer.borrow_mut().close(root);
        let l = Ledger::from_spans(tracer.borrow().spans(), 1).unwrap();
        assert_eq!(l.sum(), l.tune);
        l
    }

    #[test]
    fn traced_validation_agrees_with_the_library() {
        let cfg = MachineConfig::default();
        let op = MatmulOp::new(32, 48, 16);
        let cands = Scheduler::new(cfg.clone()).enumerate(&op);
        let l = traced(|tracer| {
            for cand in cands.iter().step_by(97).take(4) {
                let ours = validate_traced(&cfg, &op, cand, tracer, 0);
                assert_eq!(ours, Ok(()));
                assert_eq!(ours, swatop::ops::validate_candidate(&cfg, &op, cand));
            }
        });
        assert!(l.validate_static > 0 && l.validate_reference > 0);
    }

    /// A schedule that breaks the machine's SPM capacity fails the static
    /// check with the library's message.
    #[test]
    fn traced_validation_gives_the_library_static_error() {
        let op = MatmulOp::new(32, 48, 16);
        let cands = Scheduler::new(MachineConfig::default()).enumerate(&op);
        let small = MachineConfig {
            spm_bytes: 64,
            ..MachineConfig::default()
        };
        let cand = &cands[0];
        traced(|tracer| {
            let ours = validate_traced(&small, &op, cand, tracer, 0);
            let lib = swatop::ops::validate_candidate(&small, &op, cand);
            assert!(
                ours.as_ref().is_err_and(|e| e.starts_with("static: ")),
                "{ours:?}"
            );
            assert_eq!(ours, lib);
        });
    }

    /// An operator whose golden reference is off by one everywhere.
    struct WrongReference(MatmulOp);

    impl Operator for WrongReference {
        fn name(&self) -> String {
            self.0.name()
        }
        fn seed(&self) -> swatop_dsl::Seed {
            self.0.seed()
        }
        fn space(&self) -> swatop_dsl::ScheduleSpace {
            self.0.space()
        }
        fn lower(
            &self,
            space: &swatop_dsl::ScheduleSpace,
            point: &swatop_dsl::SchedulePoint,
        ) -> Option<swatop_ir::Program> {
            self.0.lower(space, point)
        }
        fn input_data(&self, program: &swatop_ir::Program) -> Vec<Vec<f32>> {
            self.0.input_data(program)
        }
        fn reference_output(&self, inputs: &[Vec<f32>]) -> Vec<f32> {
            let mut out = self.0.reference_output(inputs);
            out.iter_mut().for_each(|x| *x += 1.0);
            out
        }
        fn flops(&self) -> u64 {
            self.0.flops()
        }
    }

    /// A correct schedule checked against a wrong reference fails the
    /// differential check with the library's message.
    #[test]
    fn traced_validation_gives_the_library_differential_error() {
        let cfg = MachineConfig::default();
        let op = WrongReference(MatmulOp::new(32, 48, 16));
        let cands = Scheduler::new(cfg.clone()).enumerate(&op);
        traced(|tracer| {
            for cand in cands.iter().step_by(97).take(2) {
                let ours = validate_traced(&cfg, &op, cand, tracer, 0);
                let lib = swatop::ops::validate_candidate(&cfg, &op, cand);
                assert!(
                    ours.as_ref()
                        .is_err_and(|e| e.starts_with("differential: ")),
                    "{ours:?}"
                );
                assert_eq!(ours, lib);
            }
        });
    }
}
