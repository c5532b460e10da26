//! Declarative job specifications: a small DAG of buffer transfers and
//! kernel launches, encoded as JSON (parsed with `hwsim::json` — the
//! workspace's offline `serde_json` stand-in).
//!
//! A job spec declares its buffers, its kernels (with roofline cost
//! descriptions the scheduler's profiler consumes), and a list of steps.
//! Steps may name explicit dependencies (`after`); execution follows a
//! deterministic topological order that preserves declaration order among
//! ready steps, so the same spec always issues the same command stream.
//!
//! ```json
//! {
//!   "name": "blur-frame",
//!   "buffers": [{"name": "img", "elements": 16384}],
//!   "kernels": [{"name": "blur", "flops_per_item": 40.0, "bytes_per_item": 16.0}],
//!   "steps": [
//!     {"id": "load", "op": "write", "buffer": "img"},
//!     {"op": "launch", "kernel": "blur", "global": 16384, "local": 128,
//!      "args": ["img"], "after": ["load"]}
//!   ]
//! }
//! ```

use hwsim::json::Json;
use hwsim::{KernelCostSpec, KernelTraits};
use std::sync::Arc;

/// Why a job spec was rejected by [`JobSpec::validate`] (or failed to
/// parse). Carried inside
/// [`RejectReason::InvalidSpec`](crate::tenant::RejectReason) so admission
/// control can report the exact cause back to the submitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The JSON was structurally malformed or missing a required field.
    Malformed(String),
    /// A step referenced an undeclared buffer, kernel, or step id.
    UnknownRef {
        /// Id of the referencing step.
        step: String,
        /// The name that did not resolve.
        name: String,
    },
    /// Two buffers, kernels, or steps share a name/id.
    Duplicate(String),
    /// The same kernel is launched with differing argument counts.
    ArityMismatch(String),
    /// The `after` edges form a cycle.
    Cycle(String),
    /// A size or cost field was out of range (zero elements, zero launch
    /// geometry, a negative or non-finite kernel cost).
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Malformed(m) => write!(f, "malformed spec: {m}"),
            SpecError::UnknownRef { step, name } => {
                write!(f, "step `{step}` references unknown name `{name}`")
            }
            SpecError::Duplicate(n) => write!(f, "duplicate name `{n}`"),
            SpecError::ArityMismatch(k) => {
                write!(f, "kernel `{k}` launched with inconsistent argument counts")
            }
            SpecError::Cycle(s) => write!(f, "dependency cycle involving step `{s}`"),
            SpecError::Invalid(m) => write!(f, "invalid spec: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A buffer the job allocates (f64 elements).
#[derive(Debug, Clone, PartialEq)]
pub struct BufferSpec {
    /// Name steps refer to.
    pub name: Arc<str>,
    /// Number of f64 elements.
    pub elements: usize,
}

/// A kernel the job's program defines, with its roofline cost description
/// (what the scheduler's dynamic profiler measures against).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Kernel function name (unique within the job).
    pub name: Arc<str>,
    /// Per-work-item cost model handed to the simulator.
    pub cost: KernelCostSpec,
}

/// What one step does.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOp {
    /// `clEnqueueWriteBuffer`: host→device transfer defining where the named
    /// buffer initially lives.
    Write {
        /// Destination buffer name.
        buffer: Arc<str>,
    },
    /// `clEnqueueNDRangeKernel`: a kernel launch with buffer arguments.
    Launch {
        /// Kernel name.
        kernel: Arc<str>,
        /// Global work-items (1-D).
        global: u64,
        /// Work-items per workgroup.
        local: u64,
        /// Buffer names bound as mutable kernel arguments, in position order.
        args: Vec<Arc<str>>,
    },
}

/// One node of the job DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSpec {
    /// Step id (unique within the job; auto-named `s<index>` when omitted
    /// from the JSON).
    pub id: Arc<str>,
    /// The operation.
    pub op: StepOp,
    /// Ids of steps that must execute before this one. In-order queues give
    /// ordering for free; the edges make intent explicit and validated.
    pub after: Vec<Arc<str>>,
}

/// A declarative job: buffers + kernels + a DAG of steps.
///
/// Every name is a shared [`Arc<str>`], so cloning a spec — what each
/// submission of a template does — allocates only its vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable job name (template name, not unique per instance).
    pub name: Arc<str>,
    /// Buffers to allocate.
    pub buffers: Vec<BufferSpec>,
    /// Kernels the program defines.
    pub kernels: Vec<KernelSpec>,
    /// Steps in declaration order.
    pub steps: Vec<StepSpec>,
    /// Opt into out-of-order epoch execution: the job's worker queue
    /// carries the `SCHED_OUT_OF_ORDER` hint for its epoch, so each of the
    /// job's launches waits on its buffer hazards alone, not on the launch
    /// before it, and its transfers can run beside the job's other kernels
    /// (hazard edges still enforce this job's own data dependencies).
    /// Defaults to `false` — strict in-order execution, byte-identical with
    /// pre-flag streams.
    pub out_of_order: bool,
    /// Opt into data-parallel kernel splitting: the job's worker queue
    /// carries the `SCHED_SPLITTABLE` hint for its epoch, so split-capable
    /// kernels may be partitioned into sub-ranges across devices. Composes
    /// with `out_of_order`. Defaults to `false`.
    pub splittable: bool,
}

/// The most work one launch may declare: `flops_per_item × global` (at
/// least one flop an item, as the served kernel counts) and
/// `bytes_per_item × global`. A served kernel runs `flops / 512` host steps
/// and declares `flops × 0.25` ns of device time, which its command waits
/// out in wall-clock time, so an unbounded figure admits a job that never
/// finishes. Each bound is about 100× the largest stock template launch
/// (`svc_gpu_map`'s 1 280 × 32 768 flops, `svc_cpu_scan`'s 48 × 32 768
/// bytes); the flop bound is about a second of device time.
pub const MAX_LAUNCH_FLOPS: f64 = 4.3e9;
/// See [`MAX_LAUNCH_FLOPS`].
pub const MAX_LAUNCH_BYTES: f64 = 1.6e8;

impl JobSpec {
    /// Parse a spec from JSON text. The result is validated.
    pub fn parse_str(text: &str) -> Result<JobSpec, SpecError> {
        let json = Json::parse(text)
            .ok_or_else(|| SpecError::Malformed("unparseable JSON".to_string()))?;
        JobSpec::from_json(&json)
    }

    /// Parse a spec from a JSON value. The result is validated.
    pub fn from_json(json: &Json) -> Result<JobSpec, SpecError> {
        let str_field = |v: &Json, key: &str| -> Result<Arc<str>, SpecError> {
            v.get(key)
                .and_then(Json::as_str)
                .map(Arc::from)
                .ok_or_else(|| SpecError::Malformed(format!("missing string field `{key}`")))
        };
        let u64_field = |v: &Json, key: &str| -> Result<u64, SpecError> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| SpecError::Malformed(format!("missing integer field `{key}`")))
        };
        let arr_field = |v: &Json, key: &str| -> Result<Vec<Json>, SpecError> {
            v.get(key)
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .ok_or_else(|| SpecError::Malformed(format!("missing array field `{key}`")))
        };
        let opt_strings = |v: &Json, key: &str| -> Result<Vec<Arc<str>>, SpecError> {
            match v.get(key) {
                None => Ok(vec![]),
                Some(arr) => arr
                    .as_arr()
                    .ok_or_else(|| SpecError::Malformed(format!("`{key}` must be an array")))?
                    .iter()
                    .map(|s| {
                        s.as_str().map(Arc::from).ok_or_else(|| {
                            SpecError::Malformed(format!("`{key}` entries must be strings"))
                        })
                    })
                    .collect(),
            }
        };

        let name = str_field(json, "name")?;
        let mut buffers = Vec::new();
        for b in arr_field(json, "buffers")? {
            buffers.push(BufferSpec {
                name: str_field(&b, "name")?,
                elements: u64_field(&b, "elements")? as usize,
            });
        }
        let mut kernels = Vec::new();
        for k in arr_field(json, "kernels")? {
            let f = |key: &str, default: f64| k.get(key).and_then(Json::as_f64).unwrap_or(default);
            let defaults = KernelTraits::default();
            let traits = KernelTraits {
                coalescing: f("coalescing", defaults.coalescing),
                branch_divergence: f("branch_divergence", defaults.branch_divergence),
                vector_friendliness: f("vector_friendliness", defaults.vector_friendliness),
                double_precision: k
                    .get("double_precision")
                    .and_then(Json::as_bool)
                    .unwrap_or(defaults.double_precision),
            };
            kernels.push(KernelSpec {
                name: str_field(&k, "name")?,
                cost: KernelCostSpec {
                    flops_per_item: f("flops_per_item", 0.0),
                    bytes_per_item: f("bytes_per_item", 0.0),
                    traits,
                },
            });
        }
        let mut steps = Vec::new();
        for (i, s) in arr_field(json, "steps")?.iter().enumerate() {
            let id: Arc<str> = match s.get("id").and_then(Json::as_str) {
                Some(id) => id.into(),
                None => format!("s{i}").into(),
            };
            let op = match s.get("op").and_then(Json::as_str) {
                Some("write") => StepOp::Write { buffer: str_field(s, "buffer")? },
                Some("launch") => StepOp::Launch {
                    kernel: str_field(s, "kernel")?,
                    global: u64_field(s, "global")?,
                    local: u64_field(s, "local")?,
                    args: opt_strings(s, "args")?,
                },
                other => {
                    return Err(SpecError::Malformed(format!(
                        "step `{id}` has unknown op {other:?}"
                    )))
                }
            };
            steps.push(StepSpec { id, op, after: opt_strings(s, "after")? });
        }
        let out_of_order = json.get("out_of_order").and_then(Json::as_bool).unwrap_or(false);
        let splittable = json.get("splittable").and_then(Json::as_bool).unwrap_or(false);
        let spec = JobSpec { name, buffers, kernels, steps, out_of_order, splittable };
        spec.validate()?;
        Ok(spec)
    }

    /// Check internal consistency: unique names, resolvable references,
    /// consistent kernel arities, positive sizes, finite non-negative kernel
    /// costs, launches within [`MAX_LAUNCH_FLOPS`] and [`MAX_LAUNCH_BYTES`],
    /// acyclic dependencies.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.validated_order().map(|_| ())
    }

    /// [`Self::validate`], handing back the step indices in the topological
    /// order it had to compute to rule out cycles, so admission sorts a
    /// job's steps once. The order is Kahn's algorithm that always emits the
    /// earliest-declared ready step next, so equal specs execute identical
    /// command streams. Every name is checked against one sorted
    /// [`NameTable`]; the first failing check in declaration order decides
    /// the error.
    pub(crate) fn validated_order(&self) -> Result<Vec<usize>, SpecError> {
        let mut names = NameTable::of(self);
        for (i, b) in self.buffers.iter().enumerate() {
            if names.first(Run::Buffers, &b.name) != Some(i) {
                return Err(SpecError::Duplicate(b.name.to_string()));
            }
            if b.elements == 0 {
                return Err(SpecError::Invalid(format!("buffer `{}` has zero elements", b.name)));
            }
        }
        for (i, k) in self.kernels.iter().enumerate() {
            if names.first(Run::Buffers, &k.name).is_some()
                || names.first(Run::Kernels, &k.name) != Some(i)
            {
                return Err(SpecError::Duplicate(k.name.to_string()));
            }
            let costs = [
                ("flops_per_item", k.cost.flops_per_item),
                ("bytes_per_item", k.cost.bytes_per_item),
            ];
            if let Some((field, v)) = costs.into_iter().find(|&(_, v)| !(v.is_finite() && v >= 0.0))
            {
                return Err(SpecError::Invalid(format!(
                    "kernel `{}` has {field} {v}: a cost must be finite and non-negative",
                    k.name
                )));
            }
        }
        for (i, s) in self.steps.iter().enumerate() {
            if names.first(Run::Steps, &s.id) != Some(i) {
                return Err(SpecError::Duplicate(s.id.to_string()));
            }
        }
        let unknown = |s: &StepSpec, name: &str| SpecError::UnknownRef {
            step: s.id.to_string(),
            name: name.to_string(),
        };
        for s in &self.steps {
            match &s.op {
                StepOp::Write { buffer } => {
                    if names.first(Run::Buffers, buffer).is_none() {
                        return Err(unknown(s, buffer));
                    }
                }
                StepOp::Launch { kernel, global, local, args } => {
                    let Some(slot) = names.find(Run::Kernels, kernel) else {
                        return Err(unknown(s, kernel));
                    };
                    if *global == 0 || *local == 0 {
                        return Err(SpecError::Invalid(format!(
                            "step `{}` has zero launch geometry",
                            s.id
                        )));
                    }
                    let cost = self.kernels[names.entries[slot].1].cost;
                    let work = [
                        ("flops", cost.flops_per_item.max(1.0), MAX_LAUNCH_FLOPS),
                        ("bytes", cost.bytes_per_item, MAX_LAUNCH_BYTES),
                    ];
                    let items = *global as f64;
                    if let Some((what, per_item, most)) =
                        work.into_iter().find(|&(_, per_item, most)| per_item * items > most)
                    {
                        return Err(SpecError::Invalid(format!(
                            "step `{}` declares {:e} {what}: a launch may declare at most {most:e}",
                            s.id,
                            per_item * items
                        )));
                    }
                    if let Some(a) = args.iter().find(|a| names.first(Run::Buffers, a).is_none()) {
                        return Err(unknown(s, a));
                    }
                    // The first launch of a kernel fixes its arity.
                    if *names.entries[slot].2.get_or_insert(args.len()) != args.len() {
                        return Err(SpecError::ArityMismatch(kernel.to_string()));
                    }
                }
            }
            if let Some(dep) = s.after.iter().find(|d| names.first(Run::Steps, d).is_none()) {
                return Err(unknown(s, dep));
            }
        }
        let n = self.steps.len();
        let mut emitted = vec![false; n];
        let mut order = Vec::with_capacity(n);
        while order.len() < n {
            let next = (0..n).find(|&i| {
                !emitted[i]
                    && self.steps[i]
                        .after
                        .iter()
                        .all(|dep| names.first(Run::Steps, dep).is_some_and(|j| emitted[j]))
            });
            match next {
                Some(i) => {
                    emitted[i] = true;
                    order.push(i);
                }
                None => {
                    let stuck = (0..n).find(|&i| !emitted[i]).expect("order incomplete");
                    return Err(SpecError::Cycle(self.steps[stuck].id.to_string()));
                }
            }
        }
        Ok(order)
    }

    /// Argument count of `kernel`, read off its first launch step —
    /// validation makes every launch of a kernel agree — and 0 for a kernel
    /// that is never launched.
    pub fn kernel_arity(&self, kernel: &str) -> usize {
        self.steps
            .iter()
            .find_map(|s| match &s.op {
                StepOp::Launch { kernel: k, args, .. } if &**k == kernel => Some(args.len()),
                _ => None,
            })
            .unwrap_or(0)
    }
}

/// A run of [`NameTable`]: what kind of name is looked up.
#[derive(Clone, Copy)]
enum Run {
    Buffers,
    Kernels,
    Steps,
}

/// Every name of a spec in one vector — buffer names, then kernel names,
/// then step ids — each run sorted by (name, declaration index), so a look-up
/// is a binary search and finds a name's first declaration. The third field
/// is free for a kernel's arity, fixed by its first launch.
struct NameTable<'a> {
    entries: Vec<(&'a str, usize, Option<usize>)>,
    /// Where the kernel run and the step run start.
    kernels: usize,
    steps: usize,
}

impl<'a> NameTable<'a> {
    fn of(spec: &'a JobSpec) -> NameTable<'a> {
        let kernels = spec.buffers.len();
        let steps = kernels + spec.kernels.len();
        let mut entries = Vec::with_capacity(steps + spec.steps.len());
        entries.extend(spec.buffers.iter().enumerate().map(|(i, b)| (&*b.name, i, None)));
        entries.extend(spec.kernels.iter().enumerate().map(|(i, k)| (&*k.name, i, None)));
        entries.extend(spec.steps.iter().enumerate().map(|(i, s)| (&*s.id, i, None)));
        entries[..kernels].sort_unstable();
        entries[kernels..steps].sort_unstable();
        entries[steps..].sort_unstable();
        NameTable { entries, kernels, steps }
    }

    /// Position in `entries` of `name`'s first declaration in `run`.
    fn find(&self, run: Run, name: &str) -> Option<usize> {
        let (start, end) = match run {
            Run::Buffers => (0, self.kernels),
            Run::Kernels => (self.kernels, self.steps),
            Run::Steps => (self.steps, self.entries.len()),
        };
        let run = &self.entries[start..end];
        let at = run.partition_point(|e| e.0 < name);
        run.get(at).is_some_and(|e| e.0 == name).then_some(start + at)
    }

    /// Declaration index of `name`'s first declaration in `run`.
    fn first(&self, run: Run, name: &str) -> Option<usize> {
        self.find(run, name).map(|at| self.entries[at].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
              "name": "blur",
              "buffers": [{"name": "img", "elements": 1024}, {"name": "tmp", "elements": 1024}],
              "kernels": [
                {"name": "blur_h", "flops_per_item": 40.0, "bytes_per_item": 16.0,
                 "coalescing": 1.0, "branch_divergence": 0.0},
                {"name": "blur_v", "flops_per_item": 40.0, "bytes_per_item": 16.0}
              ],
              "steps": [
                {"id": "load", "op": "write", "buffer": "img"},
                {"id": "h", "op": "launch", "kernel": "blur_h", "global": 1024, "local": 64,
                 "args": ["img", "tmp"], "after": ["load"]},
                {"id": "v", "op": "launch", "kernel": "blur_v", "global": 1024, "local": 64,
                 "args": ["tmp", "img"], "after": ["h"]}
              ]
            }"#;

    /// The sample spec's text with `extra` top-level fields after its name.
    fn sample_text(extra: &str) -> String {
        SAMPLE.replacen(r#""name": "blur","#, &format!(r#""name": "blur",{extra}"#), 1)
    }

    fn sample() -> JobSpec {
        JobSpec::parse_str(&sample_text("")).expect("sample parses")
    }

    #[test]
    fn parses_a_spec() {
        let spec = sample();
        assert_eq!(spec.buffers.len(), 2);
        assert_eq!(spec.kernels.len(), 2);
        assert_eq!(spec.steps.len(), 3);
        assert_eq!(&*spec.kernels[1].name, "blur_v");
        assert_eq!(spec.steps[1].after, vec![Arc::<str>::from("load")]);
    }

    #[test]
    fn topological_order_is_deterministic_and_respects_deps() {
        let spec = sample();
        let order = spec.validated_order().unwrap();
        assert_eq!(order, vec![0, 1, 2]);
        // Declaration order is preserved among unconstrained steps: declare
        // the dependent first and it still runs after its dependency.
        let mut reordered = spec.clone();
        reordered.steps.swap(0, 1);
        let order = reordered.validated_order().unwrap();
        let pos = |id: &str| order.iter().position(|&i| &*reordered.steps[i].id == id).unwrap();
        assert!(pos("load") < pos("h"));
        assert!(pos("h") < pos("v"));
    }

    #[test]
    fn out_of_order_flag_parses() {
        // Absent ⇒ false.
        assert!(!sample().out_of_order);
        let mut flagged = sample();
        flagged.out_of_order = true;
        let text = sample_text(r#" "out_of_order": true,"#);
        assert_eq!(JobSpec::parse_str(&text), Ok(flagged));
    }

    #[test]
    fn splittable_flag_parses_and_composes_with_out_of_order() {
        // Absent ⇒ false.
        assert!(!sample().splittable);
        let mut flagged = sample();
        flagged.splittable = true;
        let text = sample_text(r#" "splittable": true,"#);
        assert_eq!(JobSpec::parse_str(&text), Ok(flagged));

        // The two opt-ins compose, like the `SCHED_SPLITTABLE` and
        // `SCHED_OUT_OF_ORDER` hints they set.
        let mut both = sample();
        both.splittable = true;
        both.out_of_order = true;
        let text = sample_text(r#" "splittable": true, "out_of_order": true,"#);
        assert_eq!(JobSpec::parse_str(&text), Ok(both));
    }

    #[test]
    fn rejects_unknown_references() {
        let mut spec = sample();
        spec.steps[0] = StepSpec {
            id: "load".into(),
            op: StepOp::Write { buffer: "nope".into() },
            after: vec![],
        };
        assert!(matches!(spec.validate(), Err(SpecError::UnknownRef { .. })));

        let mut spec = sample();
        spec.steps[1].after = vec!["ghost".into()];
        assert!(matches!(spec.validate(), Err(SpecError::UnknownRef { .. })));
    }

    #[test]
    fn rejects_cycles_duplicates_and_zero_sizes() {
        let mut spec = sample();
        spec.steps[1].after = vec!["v".into()]; // h ← v and v ← h
        assert!(matches!(spec.validate(), Err(SpecError::Cycle(_))));

        let mut spec = sample();
        spec.buffers[1].name = "img".into();
        assert!(matches!(spec.validate(), Err(SpecError::Duplicate(_))));

        let mut spec = sample();
        spec.buffers[0].elements = 0;
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn rejects_a_negative_or_non_finite_kernel_cost() {
        // JSON admits a negative cost; a spec built in code can also carry
        // NaN or ∞. Each is refused and names its kernel.
        let text = sample_text("").replace(r#""bytes_per_item": 16.0"#, r#""bytes_per_item": -16"#);
        assert_eq!(
            JobSpec::parse_str(&text),
            Err(SpecError::Invalid(
                "kernel `blur_h` has bytes_per_item -16: a cost must be finite and non-negative"
                    .into()
            ))
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-300] {
            let mut spec = sample();
            spec.kernels[1].cost.flops_per_item = bad;
            let err = spec.validate().unwrap_err();
            assert!(
                matches!(&err, SpecError::Invalid(m) if m.contains("`blur_v`")),
                "{bad}: {err}"
            );
            let mut spec = sample();
            spec.kernels[0].cost.bytes_per_item = bad;
            let err = spec.validate().unwrap_err();
            assert!(
                matches!(&err, SpecError::Invalid(m) if m.contains("`blur_h`")),
                "{bad}: {err}"
            );
        }
        let mut spec = sample();
        spec.kernels[0].cost.flops_per_item = 0.0;
        spec.kernels[0].cost.bytes_per_item = 0.0;
        assert_eq!(spec.validate(), Ok(()), "a zero cost is a valid cost");
    }

    #[test]
    fn rejects_inconsistent_kernel_arity() {
        let mut spec = sample();
        spec.steps.push(StepSpec {
            id: "again".into(),
            op: StepOp::Launch {
                kernel: "blur_h".into(),
                global: 64,
                local: 64,
                args: vec!["img".into()], // blur_h elsewhere takes 2 args
            },
            after: vec![],
        });
        assert!(matches!(spec.validate(), Err(SpecError::ArityMismatch(_))));
    }

    /// With several faults in one spec, the first check in declaration
    /// order decides the error: buffers, then kernels, then step ids, then
    /// each step's references in order.
    #[test]
    fn the_first_fault_in_declaration_order_decides_the_error() {
        let mut spec = sample();
        spec.buffers[0].elements = 0;
        spec.buffers[1].name = "img".into();
        assert_eq!(
            spec.validate(),
            Err(SpecError::Invalid("buffer `img` has zero elements".into()))
        );
        spec.buffers.swap(0, 1);
        assert_eq!(spec.validate(), Err(SpecError::Duplicate("img".into())));

        let mut spec = sample();
        spec.kernels[1].name = "tmp".into();
        spec.steps[2].id = "h".into();
        assert_eq!(spec.validate(), Err(SpecError::Duplicate("tmp".into())));

        let mut spec = sample();
        spec.steps[0].op = StepOp::Write { buffer: "nope".into() };
        spec.steps[0].after = vec!["ghost".into()];
        spec.steps[1].after = vec!["phantom".into()];
        let unknown = |name: &str| SpecError::UnknownRef { step: "load".into(), name: name.into() };
        assert_eq!(spec.validate(), Err(unknown("nope")));
        spec.steps[0].op = StepOp::Write { buffer: "img".into() };
        assert_eq!(spec.validate(), Err(unknown("ghost")));

        let mut spec = sample();
        if let StepOp::Launch { local, args, .. } = &mut spec.steps[1].op {
            *local = 0;
            args[0] = "nope".into();
        }
        assert!(matches!(spec.validate(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn malformed_json_reports_the_field() {
        let err = JobSpec::parse_str(r#"{"name": "x"}"#).unwrap_err();
        assert!(matches!(err, SpecError::Malformed(_)));
        assert!(err.to_string().contains("buffers"), "{err}");
        assert!(JobSpec::parse_str("not json").is_err());
    }
}
