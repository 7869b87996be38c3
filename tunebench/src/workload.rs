//! The benchmark workloads: which operator instances one run tunes.
//!
//! A workload is a list of *requests* — a GEMM case, a network layer, or
//! one pass of a training step — each served by one or more operator
//! *instances* (the applicable methods). A request is met by its fastest
//! validated instance, as a user tuning a network would keep the best
//! method per layer.
//!
//! The seed decides the values of the data every winner is validated on.
//! It decides neither the shape set nor the tuning order: the simulated
//! totals (`sim_cycles`, `sim_pct_peak`) and the peak memory must be the
//! same for every seed, so that a change in them is a change in the
//! program. Instances are tuned in network (or sorted case) order, as a
//! user tuning a network layer by layer would.

use swatop::ops::{
    ConvBackwardDataOp, ConvBackwardFilterOp, ExplicitConvOp, ImplicitConvOp, MatmulOp,
    WinogradConvOp,
};
use swatop::scheduler::Operator;
use swatop_dsl::{SchedulePoint, ScheduleSpace, Seed};
use swatop_ir::{MemRole, Program};

/// The named workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GemmSweep,
    ResnetInferB1,
    ResnetTrainB8,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GemmSweep,
        Workload::ResnetInferB1,
        Workload::ResnetTrainB8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GemmSweep => "gemm_sweep",
            Workload::ResnetInferB1 => "resnet_infer_b1",
            Workload::ResnetTrainB8 => "resnet_train_b8",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Listing-2 dimension cap: clips {200, 500, …} and {256, 512, …} to the
/// two values 200 (unaligned, needs boundary processing) and 256 (aligned).
pub const GEMM_DIM_CAP: usize = 256;
/// Of the capped cases, the half with `K = 256`: one fully aligned shape
/// and three that need boundary processing on M, N or both.
pub const GEMM_K: usize = 256;
/// ResNet layers tuned at batch 1: the stem and stages 2–4. Stage 5's three
/// 7×7 layers alone would take longer to validate than a whole run may last.
pub const INFER_LAYERS: usize = 13;
/// ResNet layers of the training step: the stem and stage 2.
pub const TRAIN_LAYERS: usize = 5;
/// Spatial cap of both ResNet workloads.
pub const RESNET_SPATIAL_CAP: usize = 7;

/// One operator instance to tune.
pub struct Instance {
    /// Stable identifier, unique within the workload (e.g. `res2_3x3.winograd`).
    pub id: String,
    /// Index of the request this instance serves.
    pub request: usize,
    pub op: Box<dyn Operator>,
}

/// Everything one run tunes, in tuning order.
pub struct Plan {
    /// Request names, indexed by [`Instance::request`].
    pub requests: Vec<String>,
    pub instances: Vec<Instance>,
}

/// The distinct GEMM cases of the `gemm_sweep` workload, sorted.
pub fn gemm_cases() -> Vec<(usize, usize, usize)> {
    let mut cases: Vec<(usize, usize, usize)> = workloads::gemm_sweep(Some(GEMM_DIM_CAP))
        .into_iter()
        .map(|c| (c.m, c.n, c.k))
        .filter(|&(_, _, k)| k == GEMM_K)
        .collect();
    cases.sort_unstable();
    cases.dedup();
    cases
}

/// Build the plan of `workload` for `seed`.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    let mut requests: Vec<String> = Vec::new();
    let mut instances = Vec::new();
    for (request, method, op) in operators(workload) {
        if requests.last() != Some(&request) {
            requests.push(request.clone());
        }
        let id = format!("{request}.{method}");
        let data_seed = mix(seed, &id);
        instances.push(Instance {
            id,
            request: requests.len() - 1,
            op: Box::new(SeededData {
                op,
                seed: data_seed,
            }),
        });
    }
    Plan {
        requests,
        instances,
    }
}

/// `(request, method, operator)` of every instance of `workload`, in
/// tuning order, before the seeded data is attached.
fn operators(workload: Workload) -> Vec<(String, &'static str, Box<dyn Operator>)> {
    let mut ops = Vec::new();
    let mut add = |request: &str, method: &'static str, op: Box<dyn Operator>| {
        ops.push((request.to_string(), method, op));
    };
    match workload {
        Workload::GemmSweep => {
            for (m, n, k) in gemm_cases() {
                add(
                    &format!("gemm_{m}x{n}x{k}"),
                    "matmul",
                    Box::new(MatmulOp::new(m, n, k)),
                );
            }
        }
        Workload::ResnetInferB1 => {
            for l in &workloads::resnet_layers()[..INFER_LAYERS] {
                let s = l.shape(1, Some(RESNET_SPATIAL_CAP));
                forward(&mut add, l.name, s);
            }
        }
        Workload::ResnetTrainB8 => {
            for l in &workloads::resnet_layers()[..TRAIN_LAYERS] {
                let s = l.shape(8, Some(RESNET_SPATIAL_CAP));
                forward(&mut add, &format!("{}.fwd", l.name), s);
                if ConvBackwardDataOp::applicable(&s) {
                    add(
                        &format!("{}.bwd_data", l.name),
                        "explicit",
                        Box::new(ConvBackwardDataOp::new(s)),
                    );
                }
                add(
                    &format!("{}.bwd_filter", l.name),
                    "explicit",
                    Box::new(ConvBackwardFilterOp::new(s)),
                );
            }
        }
    }
    ops
}

/// Every applicable forward method of one convolution layer.
fn forward(
    add: &mut impl FnMut(&str, &'static str, Box<dyn Operator>),
    request: &str,
    s: swtensor::ConvShape,
) {
    if ImplicitConvOp::applicable(&s) {
        add(request, "implicit", Box::new(ImplicitConvOp::new(s)));
    }
    if WinogradConvOp::applicable(&s) {
        add(request, "winograd", Box::new(WinogradConvOp::new(s)));
    }
    add(request, "explicit", Box::new(ExplicitConvOp::new(s)));
}

/// splitmix64: the benchmark's only source of randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a per-instance seed from the workload seed and a name.
fn mix(seed: u64, name: &str) -> u64 {
    let mut h = seed ^ 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    splitmix(&mut h)
}

/// An operator whose validation inputs are drawn from the benchmark seed
/// instead of the operator's fixed default. Everything the tuner sees —
/// name, space, lowering, flops — is the wrapped operator's.
struct SeededData {
    op: Box<dyn Operator>,
    seed: u64,
}

impl Operator for SeededData {
    fn name(&self) -> String {
        self.op.name()
    }

    fn seed(&self) -> Seed {
        self.op.seed()
    }

    fn space(&self) -> ScheduleSpace {
        self.op.space()
    }

    fn lower(&self, space: &ScheduleSpace, point: &SchedulePoint) -> Option<Program> {
        self.op.lower(space, point)
    }

    /// One vector per `Input` buffer of `program`, as long as the buffer:
    /// what every operator's own `input_data` returns, without running it.
    fn input_data(&self, program: &Program) -> Vec<Vec<f32>> {
        let mut state = self.seed;
        program
            .bufs_with_role(MemRole::Input)
            .into_iter()
            .map(|id| {
                let len = program.mem_bufs[id.0].len;
                swtensor::init::random_vec(len, splitmix(&mut state))
            })
            .collect()
    }

    fn reference_output(&self, inputs: &[Vec<f32>]) -> Vec<f32> {
        self.op.reference_output(inputs)
    }

    fn flops(&self) -> u64 {
        self.op.flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn order(w: Workload, seed: u64) -> Vec<String> {
        plan(w, seed).instances.into_iter().map(|i| i.id).collect()
    }

    #[test]
    fn gemm_draw_is_deterministic_and_distinct() {
        let cases = gemm_cases();
        assert_eq!(cases.len(), 4);
        let distinct: BTreeSet<_> = cases.iter().collect();
        assert_eq!(distinct.len(), cases.len());
        assert!(
            cases.iter().any(|&(m, n, _)| m == 200 || n == 200),
            "boundary cases kept"
        );
        assert!(cases.contains(&(256, 256, 256)), "aligned case kept");
        assert_eq!(order(Workload::GemmSweep, 3), order(Workload::GemmSweep, 3));
    }

    #[test]
    fn the_seed_never_changes_the_instances_or_their_order() {
        for w in Workload::ALL {
            let base = order(w, 1);
            for seed in [2, 3, 99, u64::MAX] {
                assert_eq!(order(w, seed), base, "{}", w.name());
            }
        }
    }

    #[test]
    fn instance_ids_are_unique_and_requests_are_served() {
        for w in Workload::ALL {
            let p = plan(w, 7);
            let ids: BTreeSet<&str> = p.instances.iter().map(|i| i.id.as_str()).collect();
            assert_eq!(ids.len(), p.instances.len(), "{}", w.name());
            for r in 0..p.requests.len() {
                assert!(
                    p.instances.iter().any(|i| i.request == r),
                    "{}",
                    p.requests[r]
                );
            }
        }
    }

    #[test]
    fn workload_sizes() {
        let infer = plan(Workload::ResnetInferB1, 0);
        assert_eq!(infer.requests.len(), INFER_LAYERS);
        let train = plan(Workload::ResnetTrainB8, 0);
        // Stem: forward + filter gradient (strided, so no data gradient);
        // the four stage-2 layers: forward + both gradients.
        assert_eq!(train.requests.len(), 2 + 4 * 3);
        assert!(train.instances.iter().any(|i| i.id.ends_with(".implicit")));
    }

    #[test]
    fn seeded_data_keeps_shapes_and_changes_values() {
        let seeded = |seed| SeededData {
            op: Box::new(MatmulOp::new(32, 48, 16)),
            seed,
        };
        let (a, b) = (seeded(5), seeded(6));
        let prog = swatop::scheduler::Scheduler::new(sw26010::MachineConfig::default())
            .enumerate(&a)
            .swap_remove(0)
            .raw;
        let (da, db) = (a.input_data(&prog), b.input_data(&prog));
        assert_eq!(da, seeded(5).input_data(&prog));
        let lens = |d: &[Vec<f32>]| d.iter().map(Vec::len).collect::<Vec<_>>();
        assert_eq!(lens(&da), lens(&a.op.input_data(&prog)));
        assert_eq!(lens(&da), lens(&db));
        assert_ne!(da, db);
        assert!(da.iter().flatten().all(|x| (-1.0..1.0).contains(x)));
    }

    /// The seeded inputs take their lengths from the program's `Input`
    /// buffers; they must match what each wrapped operator would give.
    #[test]
    fn seeded_input_lengths_match_every_wrapped_operator() {
        let lens = |d: Vec<Vec<f32>>| d.iter().map(Vec::len).collect::<Vec<_>>();
        for w in Workload::ALL {
            let mut checked = 0;
            for (request, method, op) in operators(w) {
                let space = op.space();
                let Some(prog) = space.points().take(2000).find_map(|p| op.lower(&space, &p))
                else {
                    continue;
                };
                let inner = lens(op.input_data(&prog));
                let seeded = SeededData { op, seed: 1 };
                assert_eq!(inner, lens(seeded.input_data(&prog)), "{request}.{method}");
                checked += 1;
            }
            assert!(checked > 0, "{}", w.name());
        }
    }
}
