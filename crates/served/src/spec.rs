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
use std::collections::HashMap;

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
    /// A size field was out of range (zero elements, zero launch geometry).
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
    pub name: String,
    /// Number of f64 elements.
    pub elements: usize,
}

/// A kernel the job's program defines, with its roofline cost description
/// (what the scheduler's dynamic profiler measures against).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Kernel function name (unique within the job).
    pub name: String,
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
        buffer: String,
    },
    /// `clEnqueueNDRangeKernel`: a kernel launch with buffer arguments.
    Launch {
        /// Kernel name.
        kernel: String,
        /// Global work-items (1-D).
        global: u64,
        /// Work-items per workgroup.
        local: u64,
        /// Buffer names bound as mutable kernel arguments, in position order.
        args: Vec<String>,
    },
}

/// One node of the job DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSpec {
    /// Step id (unique within the job; auto-named `s<index>` when omitted
    /// from the JSON).
    pub id: String,
    /// The operation.
    pub op: StepOp,
    /// Ids of steps that must execute before this one. In-order queues give
    /// ordering for free; the edges make intent explicit and validated.
    pub after: Vec<String>,
}

/// A declarative job: buffers + kernels + a DAG of steps.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable job name (template name, not unique per instance).
    pub name: String,
    /// Buffers to allocate.
    pub buffers: Vec<BufferSpec>,
    /// Kernels the program defines.
    pub kernels: Vec<KernelSpec>,
    /// Steps in declaration order.
    pub steps: Vec<StepSpec>,
    /// Opt into out-of-order epoch execution: the job's worker queue
    /// carries the `SCHED_OUT_OF_ORDER` hint for its epoch, so the epoch
    /// reorderer may interleave the job's launches with other jobs'
    /// transfers (hazard edges still enforce this job's own data
    /// dependencies). Defaults to `false` — strict in-order execution,
    /// byte-identical with pre-flag streams.
    pub out_of_order: bool,
    /// Opt into data-parallel kernel splitting: the job's worker queue
    /// carries the `SCHED_SPLITTABLE` hint for its epoch, so split-capable
    /// kernels may be partitioned into sub-ranges across devices. Composes
    /// with `out_of_order`. Defaults to `false`.
    pub splittable: bool,
}

impl JobSpec {
    /// Parse a spec from JSON text. The result is validated.
    pub fn parse_str(text: &str) -> Result<JobSpec, SpecError> {
        let json = Json::parse(text)
            .ok_or_else(|| SpecError::Malformed("unparseable JSON".to_string()))?;
        JobSpec::from_json(&json)
    }

    /// Parse a spec from a JSON value. The result is validated.
    pub fn from_json(json: &Json) -> Result<JobSpec, SpecError> {
        let str_field = |v: &Json, key: &str| -> Result<String, SpecError> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
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
        let opt_strings = |v: &Json, key: &str| -> Result<Vec<String>, SpecError> {
            match v.get(key) {
                None => Ok(vec![]),
                Some(arr) => arr
                    .as_arr()
                    .ok_or_else(|| SpecError::Malformed(format!("`{key}` must be an array")))?
                    .iter()
                    .map(|s| {
                        s.as_str().map(str::to_string).ok_or_else(|| {
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
            let id = match s.get("id").and_then(Json::as_str) {
                Some(id) => id.to_string(),
                None => format!("s{i}"),
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

    /// Encode as JSON. `JobSpec::from_json(&spec.to_json())` round-trips.
    /// `out_of_order` is emitted only when set, so specs written before the
    /// flag existed encode byte-identically.
    pub fn to_json(&self) -> Json {
        let mut json = Json::obj([
            ("name", Json::from(self.name.as_str())),
            (
                "buffers",
                Json::Arr(
                    self.buffers
                        .iter()
                        .map(|b| {
                            Json::obj([
                                ("name", Json::from(b.name.as_str())),
                                ("elements", Json::from(b.elements)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "kernels",
                Json::Arr(
                    self.kernels
                        .iter()
                        .map(|k| {
                            Json::obj([
                                ("name", Json::from(k.name.as_str())),
                                ("flops_per_item", Json::from(k.cost.flops_per_item)),
                                ("bytes_per_item", Json::from(k.cost.bytes_per_item)),
                                ("coalescing", Json::from(k.cost.traits.coalescing)),
                                ("branch_divergence", Json::from(k.cost.traits.branch_divergence)),
                                (
                                    "vector_friendliness",
                                    Json::from(k.cost.traits.vector_friendliness),
                                ),
                                ("double_precision", Json::Bool(k.cost.traits.double_precision)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "steps",
                Json::Arr(
                    self.steps
                        .iter()
                        .map(|s| {
                            let mut fields = vec![("id".to_string(), Json::from(s.id.as_str()))];
                            match &s.op {
                                StepOp::Write { buffer } => {
                                    fields.push(("op".into(), Json::from("write")));
                                    fields.push(("buffer".into(), Json::from(buffer.as_str())));
                                }
                                StepOp::Launch { kernel, global, local, args } => {
                                    fields.push(("op".into(), Json::from("launch")));
                                    fields.push(("kernel".into(), Json::from(kernel.as_str())));
                                    fields.push(("global".into(), Json::from(*global)));
                                    fields.push(("local".into(), Json::from(*local)));
                                    fields.push((
                                        "args".into(),
                                        Json::Arr(
                                            args.iter().map(|a| Json::from(a.as_str())).collect(),
                                        ),
                                    ));
                                }
                            }
                            if !s.after.is_empty() {
                                fields.push((
                                    "after".into(),
                                    Json::Arr(
                                        s.after.iter().map(|a| Json::from(a.as_str())).collect(),
                                    ),
                                ));
                            }
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ]);
        if self.out_of_order {
            if let Json::Obj(fields) = &mut json {
                fields.push(("out_of_order".into(), Json::Bool(true)));
            }
        }
        if self.splittable {
            if let Json::Obj(fields) = &mut json {
                fields.push(("splittable".into(), Json::Bool(true)));
            }
        }
        json
    }

    /// Check internal consistency: unique names, resolvable references,
    /// consistent kernel arities, positive sizes, acyclic dependencies.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.validated_order().map(|_| ())
    }

    /// [`Self::validate`], handing back the [`Self::topo_order`] it had to
    /// compute to rule out cycles, so admission sorts a job's steps once.
    pub(crate) fn validated_order(&self) -> Result<Vec<usize>, SpecError> {
        let mut buffer_names = std::collections::HashSet::new();
        for b in &self.buffers {
            if !buffer_names.insert(b.name.as_str()) {
                return Err(SpecError::Duplicate(b.name.clone()));
            }
            if b.elements == 0 {
                return Err(SpecError::Invalid(format!("buffer `{}` has zero elements", b.name)));
            }
        }
        let mut kernel_names = std::collections::HashSet::new();
        for k in &self.kernels {
            if buffer_names.contains(k.name.as_str()) || !kernel_names.insert(k.name.as_str()) {
                return Err(SpecError::Duplicate(k.name.clone()));
            }
        }
        let mut step_ids = std::collections::HashSet::new();
        for s in &self.steps {
            if !step_ids.insert(s.id.as_str()) {
                return Err(SpecError::Duplicate(s.id.clone()));
            }
        }
        let mut arities: HashMap<&str, usize> = HashMap::new();
        for s in &self.steps {
            match &s.op {
                StepOp::Write { buffer } => {
                    if !buffer_names.contains(buffer.as_str()) {
                        return Err(SpecError::UnknownRef {
                            step: s.id.clone(),
                            name: buffer.clone(),
                        });
                    }
                }
                StepOp::Launch { kernel, global, local, args } => {
                    if !kernel_names.contains(kernel.as_str()) {
                        return Err(SpecError::UnknownRef {
                            step: s.id.clone(),
                            name: kernel.clone(),
                        });
                    }
                    if *global == 0 || *local == 0 {
                        return Err(SpecError::Invalid(format!(
                            "step `{}` has zero launch geometry",
                            s.id
                        )));
                    }
                    for a in args {
                        if !buffer_names.contains(a.as_str()) {
                            return Err(SpecError::UnknownRef {
                                step: s.id.clone(),
                                name: a.clone(),
                            });
                        }
                    }
                    match arities.get(kernel.as_str()) {
                        Some(&n) if n != args.len() => {
                            return Err(SpecError::ArityMismatch(kernel.clone()))
                        }
                        _ => {
                            arities.insert(kernel.as_str(), args.len());
                        }
                    }
                }
            }
            for dep in &s.after {
                let resolvable = self.steps.iter().any(|t| t.id == *dep);
                if !resolvable {
                    return Err(SpecError::UnknownRef { step: s.id.clone(), name: dep.clone() });
                }
            }
        }
        self.topo_order()
    }

    /// Argument count of `kernel`, read off its first launch step —
    /// validation makes every launch of a kernel agree — and 0 for a kernel
    /// that is never launched.
    pub fn kernel_arity(&self, kernel: &str) -> usize {
        self.steps
            .iter()
            .find_map(|s| match &s.op {
                StepOp::Launch { kernel: k, args, .. } if k == kernel => Some(args.len()),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Step indices in a deterministic topological order: Kahn's algorithm
    /// that always emits the earliest-declared ready step next, so equal
    /// specs execute identical command streams.
    pub fn topo_order(&self) -> Result<Vec<usize>, SpecError> {
        let index_of: HashMap<&str, usize> =
            self.steps.iter().enumerate().map(|(i, s)| (s.id.as_str(), i)).collect();
        let n = self.steps.len();
        let mut emitted = vec![false; n];
        let mut order = Vec::with_capacity(n);
        while order.len() < n {
            let next = (0..n).find(|&i| {
                !emitted[i]
                    && self.steps[i]
                        .after
                        .iter()
                        .all(|dep| index_of.get(dep.as_str()).is_some_and(|&j| emitted[j]))
            });
            match next {
                Some(i) => {
                    emitted[i] = true;
                    order.push(i);
                }
                None => {
                    let stuck = (0..n).find(|&i| !emitted[i]).expect("order incomplete");
                    return Err(SpecError::Cycle(self.steps[stuck].id.clone()));
                }
            }
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        JobSpec::parse_str(
            r#"{
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
            }"#,
        )
        .expect("sample parses")
    }

    #[test]
    fn parses_and_roundtrips_through_json() {
        let spec = sample();
        assert_eq!(spec.buffers.len(), 2);
        assert_eq!(spec.kernels.len(), 2);
        assert_eq!(spec.steps.len(), 3);
        let again = JobSpec::from_json(&spec.to_json()).expect("round-trip parses");
        assert_eq!(again, spec);
        // And through text.
        let text = spec.to_json().dump();
        assert_eq!(JobSpec::parse_str(&text).unwrap(), spec);
    }

    #[test]
    fn topological_order_is_deterministic_and_respects_deps() {
        let spec = sample();
        let order = spec.topo_order().unwrap();
        assert_eq!(order, vec![0, 1, 2]);
        // Declaration order is preserved among unconstrained steps: declare
        // the dependent first and it still runs after its dependency.
        let mut reordered = spec.clone();
        reordered.steps.swap(0, 1);
        let order = reordered.topo_order().unwrap();
        let pos = |id: &str| order.iter().position(|&i| reordered.steps[i].id == id).unwrap();
        assert!(pos("load") < pos("h"));
        assert!(pos("h") < pos("v"));
    }

    #[test]
    fn out_of_order_flag_parses_and_roundtrips() {
        // Absent ⇒ false, and a false flag is not emitted (old specs encode
        // byte-identically).
        let spec = sample();
        assert!(!spec.out_of_order);
        assert!(spec.to_json().get("out_of_order").is_none());

        let mut flagged = sample();
        flagged.out_of_order = true;
        let json = flagged.to_json();
        assert_eq!(json.get("out_of_order").and_then(Json::as_bool), Some(true));
        let again = JobSpec::from_json(&json).expect("flagged spec parses");
        assert_eq!(again, flagged);
    }

    #[test]
    fn splittable_flag_parses_roundtrips_and_composes_with_out_of_order() {
        // Absent ⇒ false, and a false flag is not emitted (old specs encode
        // byte-identically).
        let spec = sample();
        assert!(!spec.splittable);
        assert!(spec.to_json().get("splittable").is_none());

        let mut flagged = sample();
        flagged.splittable = true;
        let json = flagged.to_json();
        assert_eq!(json.get("splittable").and_then(Json::as_bool), Some(true));
        let again = JobSpec::from_json(&json).expect("flagged spec parses");
        assert_eq!(again, flagged);

        // The two opt-ins compose, like the `SCHED_SPLITTABLE` and
        // `SCHED_OUT_OF_ORDER` hints they set.
        let mut both = sample();
        both.splittable = true;
        both.out_of_order = true;
        assert_eq!(both.validate(), Ok(()));
        assert_eq!(JobSpec::from_json(&both.to_json()), Ok(both));
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

    #[test]
    fn malformed_json_reports_the_field() {
        let err = JobSpec::parse_str(r#"{"name": "x"}"#).unwrap_err();
        assert!(matches!(err, SpecError::Malformed(_)));
        assert!(err.to_string().contains("buffers"), "{err}");
        assert!(JobSpec::parse_str("not json").is_err());
    }
}
