//! In-memory span recording and the stage ledger.
//!
//! Spans are opened and closed by the benchmark around its calls into the
//! library; nothing inside the library is instrumented. Times are integer
//! nanoseconds since the tracer's origin, so the ledger's sums are exact.

use std::time::Instant;

/// The layer a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole tuning job, from calibrated model to the last winner.
    Tune,
    /// One operator instance: enumerate, tune, emit.
    Instance,
    /// `Scheduler::enumerate`.
    Scheduler,
    /// `tiered_tune_validated`, including the validator calls it makes.
    Tuner,
    /// One call of the winner validator.
    Validate,
    /// The static legality check inside a validation.
    ValidateStatic,
    /// Golden input generation and reference output inside a validation.
    ValidateReference,
    /// `Executable::emit_c` of the winner.
    Codegen,
    /// Model-accuracy measurement; excluded from the traced `tune_s`.
    Model,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: Layer,
    pub parent: Option<usize>,
    /// Index of the operator instance the span belongs to, if any.
    pub instance: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. A disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span under the innermost open span; returns its id.
    pub fn open(&mut self, layer: Layer, instance: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            layer,
            parent,
            instance,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The spans as a Chrome trace-event document (loadable in Perfetto).
/// Each event carries its span id, parent id and instance id.
pub fn chrome_trace(spans: &[Span], instance_ids: &[String]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let instance = sp
            .instance
            .and_then(|k| instance_ids.get(k))
            .map_or("null".to_string(), |id| {
                format!("\"{}\"", sw26010::json::escape_json(id))
            });
        let _ = write!(
            s,
            "{}{{\"name\":\"{:?}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"instance\":{instance}}}}}",
            if i > 0 { "," } else { "" },
            sp.layer,
            sp.start_ns as f64 / 1e3,
            sp.dur() as f64 / 1e3,
        );
    }
    s.push_str("]}\n");
    s
}

/// Self time per stage, in nanoseconds. `scheduler + tuner + validate +
/// codegen + other` partitions the traced tuning wall exactly.
#[derive(Debug, Default)]
pub struct Ledger {
    pub scheduler: u64,
    /// Ladder self time: the tuner span minus the validations it made.
    pub tuner: u64,
    pub validate: u64,
    pub validate_static: u64,
    pub validate_reference: u64,
    /// `validate - validate_static - validate_reference`.
    pub validate_functional: u64,
    pub codegen: u64,
    /// Instance time no stage span covers, plus the gaps between instances.
    pub other: u64,
    /// The traced tuning wall: the `Tune` span minus its `Model` spans.
    pub tune: u64,
    pub model: u64,
    /// Per-instance ledgers, indexed by instance.
    pub instances: Vec<InstanceLedger>,
}

/// One instance's stages; they sum exactly to `wall`.
#[derive(Debug, Clone, Default)]
pub struct InstanceLedger {
    pub wall: u64,
    pub scheduler: u64,
    pub tuner: u64,
    pub validate: u64,
    pub codegen: u64,
    pub other: u64,
}

impl InstanceLedger {
    pub fn sum(&self) -> u64 {
        self.scheduler + self.tuner + self.validate + self.codegen + self.other
    }
}

impl Ledger {
    pub fn sum(&self) -> u64 {
        self.scheduler + self.tuner + self.validate + self.codegen + self.other
    }

    /// Fold a span tree with exactly one `Tune` root into the ledger.
    /// Fails when a span lies outside its parent, children overlap, or a
    /// stage span sits where the ledger does not expect it — any of which
    /// would make the partition a lie.
    pub fn from_spans(spans: &[Span], n_instances: usize) -> Result<Ledger, String> {
        let roots: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].parent.is_none())
            .collect();
        let [root] = roots[..] else {
            return Err(format!("expected one root span, found {}", roots.len()));
        };
        if spans[root].layer != Layer::Tune {
            return Err("the root span is not the tuning job".into());
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                let ps = spans
                    .get(p)
                    .ok_or_else(|| format!("span {i}: no parent {p}"))?;
                if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns || s.end_ns < s.start_ns {
                    return Err(format!("span {i} ({:?}) lies outside its parent", s.layer));
                }
                children[p].push(i);
            }
        }
        for c in &mut children {
            c.sort_by_key(|&i| spans[i].start_ns);
            if c.windows(2)
                .any(|w| spans[w[0]].end_ns > spans[w[1]].start_ns)
            {
                return Err("sibling spans overlap".into());
            }
        }
        let covered = |i: usize| children[i].iter().map(|&c| spans[c].dur()).sum::<u64>();
        let mut l = Ledger {
            instances: vec![InstanceLedger::default(); n_instances],
            ..Ledger::default()
        };
        l.other = spans[root].dur() - covered(root);
        for &top in &children[root] {
            match spans[top].layer {
                Layer::Model => l.model += spans[top].dur(),
                Layer::Instance => {
                    let k = spans[top]
                        .instance
                        .filter(|&k| k < n_instances)
                        .ok_or("instance span without an instance")?;
                    let il = &mut l.instances[k];
                    il.wall += spans[top].dur();
                    il.other += spans[top].dur() - covered(top);
                    for &c in &children[top] {
                        let d = spans[c].dur();
                        match spans[c].layer {
                            Layer::Scheduler => il.scheduler += d,
                            Layer::Codegen => il.codegen += d,
                            Layer::Tuner => {
                                let v: Vec<usize> = children[c].clone();
                                if v.iter().any(|&x| spans[x].layer != Layer::Validate) {
                                    return Err("only validations nest in the tuner".into());
                                }
                                let vd = covered(c);
                                il.tuner += d - vd;
                                il.validate += vd;
                                for &x in &v {
                                    for &y in &children[x] {
                                        match spans[y].layer {
                                            Layer::ValidateStatic => {
                                                l.validate_static += spans[y].dur()
                                            }
                                            Layer::ValidateReference => {
                                                l.validate_reference += spans[y].dur()
                                            }
                                            other => {
                                                return Err(format!(
                                                    "{other:?} inside a validation"
                                                ))
                                            }
                                        }
                                    }
                                }
                            }
                            other => return Err(format!("{other:?} directly inside an instance")),
                        }
                    }
                }
                other => return Err(format!("{other:?} directly inside the tuning job")),
            }
        }
        for il in &l.instances {
            l.scheduler += il.scheduler;
            l.tuner += il.tuner;
            l.validate += il.validate;
            l.codegen += il.codegen;
            l.other += il.other;
        }
        l.validate_functional = l.validate - l.validate_static - l.validate_reference;
        l.tune = spans[root].dur() - l.model;
        if l.sum() != l.tune || l.instances.iter().any(|il| il.sum() != il.wall) {
            return Err("ledger does not partition the tuning wall".into());
        }
        Ok(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<usize>, instance: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            layer,
            parent,
            instance,
            start_ns: s,
            end_ns: e,
        }
    }

    /// tune [0,100]: instance 0 [2,60] = sched [3,20] + tuner [20,50]
    /// (validate [30,45] = static [30,31] + reference [31,40]) + codegen
    /// [50,55]; model [60,70]; instance 1 [71,99] = sched [71,90].
    fn sample() -> Vec<Span> {
        vec![
            span(Layer::Tune, None, None, 0, 100),
            span(Layer::Instance, Some(0), Some(0), 2, 60),
            span(Layer::Scheduler, Some(1), Some(0), 3, 20),
            span(Layer::Tuner, Some(1), Some(0), 20, 50),
            span(Layer::Validate, Some(3), Some(0), 30, 45),
            span(Layer::ValidateStatic, Some(4), Some(0), 30, 31),
            span(Layer::ValidateReference, Some(4), Some(0), 31, 40),
            span(Layer::Codegen, Some(1), Some(0), 50, 55),
            span(Layer::Model, Some(0), None, 60, 70),
            span(Layer::Instance, Some(0), Some(1), 71, 99),
            span(Layer::Scheduler, Some(9), Some(1), 71, 90),
        ]
    }

    #[test]
    fn ledger_partitions_exactly() {
        let l = Ledger::from_spans(&sample(), 2).unwrap();
        assert_eq!(l.tune, 90);
        assert_eq!(l.model, 10);
        assert_eq!(
            (l.scheduler, l.tuner, l.validate, l.codegen),
            (17 + 19, 15, 15, 5)
        );
        assert_eq!(
            (
                l.validate_static,
                l.validate_reference,
                l.validate_functional
            ),
            (1, 9, 5)
        );
        // Gaps: [0,2] + [70,71] + [99,100] at the top, [55,60] and [2,3]
        // in instance 0, [90,99] in instance 1.
        assert_eq!(l.other, 4 + 6 + 9);
        assert_eq!(l.sum(), l.tune);
        assert_eq!(l.instances[0].wall, 58);
        assert_eq!(l.instances[0].sum(), 58);
        assert_eq!(l.instances[1].sum(), 28);
    }

    #[test]
    fn ledger_rejects_broken_trees() {
        let mut s = sample();
        s[2].end_ns = 61; // scheduler outlives its instance
        assert!(Ledger::from_spans(&s, 2).is_err());
        let mut s = sample();
        s[7].start_ns = 45; // codegen overlaps the tuner
        assert!(Ledger::from_spans(&s, 2).is_err());
        let mut s = sample();
        s[4].layer = Layer::Codegen; // a stage where only validations go
        assert!(Ledger::from_spans(&s, 2).is_err());
        let mut s = sample();
        s.push(span(Layer::Tune, None, None, 0, 1)); // two roots
        assert!(Ledger::from_spans(&s, 2).is_err());
    }

    #[test]
    fn tracer_records_nesting_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let a = t.open(Layer::Tune, None);
        let b = t.open(Layer::Instance, Some(0));
        t.close(b);
        t.close(a);
        assert_eq!(t.spans()[b].parent, Some(a));
        assert!(Ledger::from_spans(t.spans(), 1).is_ok());
        let doc = chrome_trace(t.spans(), &["gemm_64x64x64.matmul".into()]);
        let j = sw26010::json::parse(&doc).unwrap();
        let events = j.field("traceEvents").unwrap().as_arr("events").unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].field("args").unwrap();
        assert_eq!(
            args.field("parent").unwrap().as_u64("parent").unwrap(),
            a as u64
        );
        assert_eq!(
            args.field("instance").unwrap().as_str("instance").unwrap(),
            "gemm_64x64x64.matmul"
        );
        let mut off = Tracer::new(false);
        let a = off.open(Layer::Tune, None);
        off.close(a);
        assert!(off.spans().is_empty());
    }
}
