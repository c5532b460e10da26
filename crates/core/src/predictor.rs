//! Predictive kernel cost model: feature-based runtime prediction with
//! online refinement, replacing the profiling cold-start (the paper's §V-C
//! dynamic profiling pass) for kernels the model is confident about.
//!
//! Every unseen kernel otherwise costs a full profiling epoch — staging
//! transfers plus one (mini)kernel run per device — before `AUTO_FIT` can
//! map it. Johnston et al. ("OpenCL Performance Prediction using
//! Architecture-Independent Features") show kernel runtime is predictable
//! from static, device-independent features; our kernel descriptors
//! ([`KernelCostSpec`] / [`hwsim::KernelTraits`]) already carry exactly
//! those features (flops/item, bytes/item, divergence, vectorizability),
//! and the launch shape and argument footprint complete the vector.
//!
//! The model is one closed-form **ridge regression per device** over the
//! [`FEATURE_DIM`] features of [`KernelFeatures`], fit in log-time space so
//! residuals are *relative* errors and magnitudes spanning nanoseconds to
//! seconds share one well-conditioned system. Training data comes from the
//! completion telemetry the scheduler already produces: after each flush,
//! executed kernel durations are read from the engine trace and folded into
//! the per-device normal equations (EngineCL-style online refinement). No
//! matrix is inverted incrementally — each prediction solves the 10×10
//! system directly, which is microseconds of host time and keeps every
//! fold/solve in one fixed, deterministic floating-point order.
//!
//! Predictions carry an **uncertainty**: the predictive standard deviation
//! of the log-space residual (residual variance × (1 + leverage)), which
//! reads directly as a relative-error bound. The scheduler's confidence
//! gate (`SchedOptions::predictor_confidence`) compares against it and
//! falls back to minikernel profiling for rows the model cannot vouch for —
//! so an untrained or out-of-distribution kernel behaves exactly as before
//! this subsystem existed.
//!
//! Models persist as JSON next to the [`crate::ProfileCache`] device
//! profiles, keyed and validated by the node fingerprint, so a restarted
//! service starts warm instead of re-learning from scratch.

use hwsim::json::Json;
use hwsim::{KernelCostSpec, NdRangeShape, SimDuration};
use std::path::PathBuf;

/// Number of features in [`KernelFeatures`] (including the bias term).
pub const FEATURE_DIM: usize = 10;

/// Ridge regularizer added to the Gram diagonal. Large enough to keep the
/// solve stable with few samples, small enough not to bias a trained model.
const RIDGE_LAMBDA: f64 = 1e-2;

/// Samples a device model needs before any prediction is offered. Below
/// this, the normal equations are ill-determined no matter what the
/// variance estimate claims.
pub const MIN_TRAINING_SAMPLES: u64 = 8;

/// Default [`crate::SchedOptions::predictor_confidence`] used by callers
/// that opt in without tuning (the serving layer): predictions are used
/// when the model's predictive relative-error bound is within 25%.
pub const DEFAULT_PREDICTOR_CONFIDENCE: f64 = 0.25;

/// The architecture-independent feature vector of one kernel launch.
///
/// All magnitude features enter as `ln(1 + v)`: the runtime surface is
/// multiplicative in problem size and rates, so log-space is where a linear
/// model fits it, and it keeps the Gram matrix conditioned across kernels
/// whose sizes span orders of magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelFeatures {
    /// The feature values, bias first.
    pub x: [f64; FEATURE_DIM],
}

impl KernelFeatures {
    /// Build the feature vector for launching a kernel described by `cost`
    /// with shape `shape`, touching `arg_bytes` bytes of argument buffers.
    pub fn describe(cost: &KernelCostSpec, shape: NdRangeShape, arg_bytes: u64) -> KernelFeatures {
        let ln1p = |v: f64| (1.0 + v.max(0.0)).ln();
        KernelFeatures {
            x: [
                1.0,
                ln1p(cost.total_flops(shape)),
                ln1p(cost.total_bytes(shape) as f64),
                ln1p(shape.workgroups() as f64),
                ln1p(shape.local_items as f64),
                cost.traits.branch_divergence,
                cost.traits.coalescing,
                cost.traits.vector_friendliness,
                f64::from(u8::from(cost.traits.double_precision)),
                ln1p(arg_bytes as f64),
            ],
        }
    }

    /// A raw feature vector (property tests plant linear models directly).
    pub fn from_raw(x: [f64; FEATURE_DIM]) -> KernelFeatures {
        KernelFeatures { x }
    }
}

/// A prediction for one (kernel, device) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted full-kernel execution time.
    pub time: SimDuration,
    /// Predictive standard deviation of the log-space residual — reads as
    /// a relative-error bound (0.1 ≈ ±10%).
    pub uncertainty: f64,
    /// Training samples behind this device's model.
    pub samples: u64,
}

/// Online ridge regression for one device: the normal-equation
/// sufficient statistics, folded sample by sample.
#[derive(Debug, Clone)]
pub struct DeviceModel {
    /// Gram matrix `XᵀX`, row-major.
    gram: [[f64; FEATURE_DIM]; FEATURE_DIM],
    /// Moment vector `Xᵀy` (y = ln of the observed time in ns).
    xty: [f64; FEATURE_DIM],
    /// `yᵀy`, for the closed-form residual variance.
    yty: f64,
    /// Samples folded so far.
    n: u64,
}

impl Default for DeviceModel {
    fn default() -> DeviceModel {
        DeviceModel {
            gram: [[0.0; FEATURE_DIM]; FEATURE_DIM],
            xty: [0.0; FEATURE_DIM],
            yty: 0.0,
            n: 0,
        }
    }
}

/// Solve `(A + λI) w = b` by Gaussian elimination with partial pivoting.
/// Deterministic: fixed pivot scan and elimination order, pure `f64`.
fn ridge_solve(
    a: &[[f64; FEATURE_DIM]; FEATURE_DIM],
    b: &[f64; FEATURE_DIM],
) -> Option<[f64; FEATURE_DIM]> {
    let mut m = [[0.0; FEATURE_DIM + 1]; FEATURE_DIM];
    for i in 0..FEATURE_DIM {
        for j in 0..FEATURE_DIM {
            m[i][j] = a[i][j] + if i == j { RIDGE_LAMBDA } else { 0.0 };
        }
        m[i][FEATURE_DIM] = b[i];
    }
    for col in 0..FEATURE_DIM {
        let mut pivot = col;
        for row in col + 1..FEATURE_DIM {
            if m[row][col].abs() > m[pivot][col].abs() {
                pivot = row;
            }
        }
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        let pivot_row = m[col];
        for row in m.iter_mut().take(FEATURE_DIM).skip(col + 1) {
            let f = row[col] / pivot_row[col];
            for (k, &p) in pivot_row.iter().enumerate().skip(col) {
                row[k] -= f * p;
            }
        }
    }
    let mut w = [0.0; FEATURE_DIM];
    for col in (0..FEATURE_DIM).rev() {
        let mut v = m[col][FEATURE_DIM];
        for k in col + 1..FEATURE_DIM {
            v -= m[col][k] * w[k];
        }
        w[col] = v / m[col][col];
    }
    Some(w)
}

impl DeviceModel {
    /// Fold one observed execution into the sufficient statistics.
    pub fn observe(&mut self, f: &KernelFeatures, actual: SimDuration) {
        let y = (actual.as_nanos().max(1) as f64).ln();
        for i in 0..FEATURE_DIM {
            for j in 0..FEATURE_DIM {
                self.gram[i][j] += f.x[i] * f.x[j];
            }
            self.xty[i] += f.x[i] * y;
        }
        self.yty += y * y;
        self.n += 1;
    }

    /// Samples folded so far.
    pub fn samples(&self) -> u64 {
        self.n
    }

    /// Predict the execution time for `f`, with its uncertainty. `None`
    /// until [`MIN_TRAINING_SAMPLES`] observations have been folded or if
    /// the system is degenerate.
    pub fn predict(&self, f: &KernelFeatures) -> Option<Prediction> {
        if self.n < MIN_TRAINING_SAMPLES {
            return None;
        }
        let w = ridge_solve(&self.gram, &self.xty)?;
        let y_hat: f64 = w.iter().zip(&f.x).map(|(wi, xi)| wi * xi).sum();
        // Residual sum of squares in closed form: yᵀy − 2wᵀb + wᵀAw.
        let mut waw = 0.0;
        let mut wb = 0.0;
        for i in 0..FEATURE_DIM {
            wb += w[i] * self.xty[i];
            let row: f64 = w.iter().zip(&self.gram[i]).map(|(wj, a)| wj * a).sum();
            waw += w[i] * row;
        }
        let dof = self.n.saturating_sub(FEATURE_DIM as u64).max(1) as f64;
        let s2 = ((self.yty - 2.0 * wb + waw) / dof).max(0.0);
        // Leverage `xᵀ(A+λI)⁻¹x` via one more solve with x as the rhs.
        let inv_x = ridge_solve(&self.gram, &f.x)?;
        let leverage: f64 = f.x.iter().zip(&inv_x).map(|(xi, vi)| xi * vi).sum();
        let uncertainty = (s2 * (1.0 + leverage.max(0.0))).sqrt();
        // exp(ŷ) ns, clamped to a sane range so a wild extrapolation cannot
        // overflow the duration type.
        let ns = y_hat.exp().clamp(1.0, 1e18);
        Some(Prediction {
            time: SimDuration::from_nanos(ns.round() as u64),
            uncertainty,
            samples: self.n,
        })
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "gram",
                Json::Arr(self.gram.iter().map(|r| Json::num_arr(r.iter().copied())).collect()),
            ),
            ("xty", Json::num_arr(self.xty.iter().copied())),
            ("yty", Json::from(self.yty)),
            ("n", Json::from(self.n)),
        ])
    }

    fn from_json(value: &Json) -> Option<DeviceModel> {
        let mut model = DeviceModel::default();
        let rows = value.get("gram")?.as_arr()?;
        if rows.len() != FEATURE_DIM {
            return None;
        }
        for (i, row) in rows.iter().enumerate() {
            let row = row.as_arr()?;
            if row.len() != FEATURE_DIM {
                return None;
            }
            for (j, v) in row.iter().enumerate() {
                model.gram[i][j] = v.as_f64()?;
            }
        }
        let xty = value.get("xty")?.as_arr()?;
        if xty.len() != FEATURE_DIM {
            return None;
        }
        for (i, v) in xty.iter().enumerate() {
            model.xty[i] = v.as_f64()?;
        }
        model.yty = value.get("yty")?.as_f64()?;
        model.n = value.get("n")?.as_u64()?;
        Some(model)
    }
}

/// The per-context predictive cost model: one [`DeviceModel`] per context
/// device, tied to the node fingerprint it was trained on.
#[derive(Debug, Clone)]
pub struct CostPredictor {
    fingerprint: String,
    devices: Vec<DeviceModel>,
}

impl CostPredictor {
    /// An untrained predictor for a node with `device_count` devices.
    pub fn new(device_count: usize, fingerprint: impl Into<String>) -> CostPredictor {
        CostPredictor {
            fingerprint: fingerprint.into(),
            devices: vec![DeviceModel::default(); device_count],
        }
    }

    /// The node fingerprint this model was trained on.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Number of device models.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Training samples folded for one device (0 for out-of-range indices).
    pub fn samples(&self, device_index: usize) -> u64 {
        self.devices.get(device_index).map_or(0, DeviceModel::samples)
    }

    /// Fold one observed execution on device `device_index`.
    pub fn observe(&mut self, device_index: usize, f: &KernelFeatures, actual: SimDuration) {
        if let Some(m) = self.devices.get_mut(device_index) {
            m.observe(f, actual);
        }
    }

    /// Predict the execution time on device `device_index`.
    pub fn predict(&self, device_index: usize, f: &KernelFeatures) -> Option<Prediction> {
        self.devices.get(device_index)?.predict(f)
    }

    /// Encode the model (fingerprint included) for persistence.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("fingerprint", Json::from(self.fingerprint.as_str())),
            ("devices", Json::Arr(self.devices.iter().map(DeviceModel::to_json).collect())),
        ])
    }

    /// Decode a persisted model. Returns `None` on malformed input; callers
    /// must still check [`Self::fingerprint`] against the live node.
    pub fn from_json(value: &Json) -> Option<CostPredictor> {
        let fingerprint = value.get("fingerprint")?.as_str()?.to_string();
        let devices = value
            .get("devices")?
            .as_arr()?
            .iter()
            .map(DeviceModel::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(CostPredictor { fingerprint, devices })
    }

    /// File the model persists to inside a profile-cache directory, named
    /// by the same FNV-1a fingerprint hash as the device-profile files.
    pub fn file_in(dir: &std::path::Path, fingerprint: &str) -> PathBuf {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in fingerprint.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        dir.join(format!("predictor-{hash:016x}.json"))
    }

    /// Load a persisted model from `dir` for the node identified by
    /// `fingerprint`. A missing file, malformed JSON, a fingerprint
    /// mismatch, or a device-count mismatch all invalidate the stored model
    /// (returns `None` — the caller starts cold).
    pub fn load(
        dir: &std::path::Path,
        fingerprint: &str,
        device_count: usize,
    ) -> Option<CostPredictor> {
        let text = std::fs::read_to_string(Self::file_in(dir, fingerprint)).ok()?;
        let model = CostPredictor::from_json(&Json::parse(&text)?)?;
        (model.fingerprint == fingerprint && model.devices.len() == device_count).then_some(model)
    }

    /// Persist the model into `dir` (best effort, like the profile cache:
    /// an unwritable directory only costs re-learning on the next run).
    pub fn store(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        crate::profile::replace_file(&Self::file_in(dir, &self.fingerprint), &self.to_json().dump())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::xrand::XorShift;

    /// Synthesize a feature vector with magnitudes like real launches.
    fn random_features(rng: &mut XorShift) -> KernelFeatures {
        let mut x = [0.0; FEATURE_DIM];
        x[0] = 1.0;
        for v in x.iter_mut().skip(1) {
            *v = rng.range_f64(0.0, 20.0);
        }
        KernelFeatures::from_raw(x)
    }

    #[test]
    fn ridge_recovers_a_planted_linear_model() {
        // Property (xrand-seeded): samples drawn from y = wᵀx + ε with
        // small noise must be recovered to within the noise level, and the
        // model must then predict an unseen point accurately.
        for seed in [3u64, 17, 99] {
            let mut rng = XorShift::new(seed);
            // Positive weights with a positive bias keep every synthetic
            // log-time within the representable nanosecond range (the model
            // quantizes observations to ≥ 1ns, which would otherwise
            // truncate the planted signal).
            let mut planted = [0.0; FEATURE_DIM];
            for w in planted.iter_mut() {
                *w = rng.range_f64(0.02, 0.15);
            }
            planted[0] = rng.range_f64(2.0, 6.0);
            let mut model = DeviceModel::default();
            for _ in 0..200 {
                let f = random_features(&mut rng);
                let y: f64 = planted.iter().zip(&f.x).map(|(w, x)| w * x).sum();
                let noisy = y + rng.range_f64(-0.01, 0.01);
                model.observe(&f, SimDuration::from_nanos(noisy.exp().round().max(1.0) as u64));
            }
            let probe = random_features(&mut rng);
            let truth: f64 = planted.iter().zip(&probe.x).map(|(w, x)| w * x).sum();
            let p = model.predict(&probe).expect("trained model predicts");
            let predicted_ln = (p.time.as_nanos().max(1) as f64).ln();
            assert!(
                (predicted_ln - truth).abs() < 0.1,
                "seed {seed}: predicted ln {predicted_ln} vs planted {truth}"
            );
            assert!(p.uncertainty < 0.1, "seed {seed}: uncertainty {}", p.uncertainty);
        }
    }

    #[test]
    fn untrained_and_undertrained_models_refuse_to_predict() {
        let mut model = DeviceModel::default();
        let f = KernelFeatures::from_raw([1.0; FEATURE_DIM]);
        assert!(model.predict(&f).is_none(), "cold model must not predict");
        for _ in 0..MIN_TRAINING_SAMPLES - 1 {
            model.observe(&f, SimDuration::from_nanos(1000));
        }
        assert!(model.predict(&f).is_none(), "undertrained model must not predict");
        model.observe(&f, SimDuration::from_nanos(1000));
        assert!(model.predict(&f).is_some(), "threshold reached");
    }

    #[test]
    fn out_of_distribution_probe_reports_high_uncertainty() {
        let mut rng = XorShift::new(7);
        let mut model = DeviceModel::default();
        // Train on a narrow slab of feature space with noticeable noise, so
        // the residual variance is non-trivial.
        for _ in 0..100 {
            let mut x = [0.0; FEATURE_DIM];
            x[0] = 1.0;
            for v in x.iter_mut().skip(1) {
                *v = rng.range_f64(5.0, 6.0);
            }
            let f = KernelFeatures::from_raw(x);
            let y = 3.0 + x[1] * 0.5 + rng.range_f64(-0.2, 0.2);
            model.observe(&f, SimDuration::from_nanos(y.exp().round().max(1.0) as u64));
        }
        let near = {
            let mut x = [5.5; FEATURE_DIM];
            x[0] = 1.0;
            KernelFeatures::from_raw(x)
        };
        let far = {
            let mut x = [0.0; FEATURE_DIM];
            x[0] = 1.0;
            x[1] = 500.0; // far outside the training slab
            KernelFeatures::from_raw(x)
        };
        let near_p = model.predict(&near).unwrap();
        let far_p = model.predict(&far).unwrap();
        assert!(
            far_p.uncertainty > 5.0 * near_p.uncertainty,
            "leverage must punish extrapolation: near {} vs far {}",
            near_p.uncertainty,
            far_p.uncertainty
        );
    }

    #[test]
    fn model_json_roundtrips_and_fingerprint_mismatch_invalidates() {
        let dir =
            std::env::temp_dir().join(format!("multicl-test-predictor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = XorShift::new(11);
        let mut model = CostPredictor::new(3, "node-A");
        for _ in 0..40 {
            let f = random_features(&mut rng);
            let dev = rng.index(3);
            model.observe(dev, &f, SimDuration::from_nanos(rng.range_u64(100, 1_000_000)));
        }
        model.store(&dir).expect("store");
        let loaded = CostPredictor::load(&dir, "node-A", 3).expect("reload");
        assert_eq!(loaded.fingerprint(), "node-A");
        for d in 0..3 {
            assert_eq!(loaded.samples(d), model.samples(d), "device {d} sample count");
        }
        // Trained devices must predict identically after the round-trip.
        let probe = random_features(&mut rng);
        for d in 0..3 {
            let a = model.predict(d, &probe);
            let b = loaded.predict(d, &probe);
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.time, b.time, "device {d}");
                    assert!((a.uncertainty - b.uncertainty).abs() < 1e-9, "device {d}");
                }
                (None, None) => {}
                other => panic!("device {d}: prediction mismatch after reload: {other:?}"),
            }
        }
        // A different node fingerprint invalidates the stored model …
        assert!(CostPredictor::load(&dir, "node-B", 3).is_none());
        // … as does a device-count mismatch for the same fingerprint.
        assert!(CostPredictor::load(&dir, "node-A", 4).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prediction_is_deterministic() {
        let build = || {
            let mut rng = XorShift::new(5);
            let mut m = DeviceModel::default();
            for _ in 0..50 {
                let f = random_features(&mut rng);
                m.observe(&f, SimDuration::from_nanos(rng.range_u64(10, 10_000_000)));
            }
            let probe = random_features(&mut rng);
            m.predict(&probe).unwrap()
        };
        let (a, b) = (build(), build());
        assert_eq!(a.time, b.time);
        assert_eq!(a.uncertainty.to_bits(), b.uncertainty.to_bits());
    }

    #[test]
    fn uncertainty_inflation_preserves_per_row_device_ordering() {
        // Property (xrand-seeded): the scheduler inflates every measured
        // entry of a predicted row by the same relative margin, so the
        // row's device *ordering* — hence each queue's individually best
        // device — must be unchanged for any margin.
        for seed in [2u64, 29, 71] {
            let mut rng = XorShift::new(seed);
            for _ in 0..50 {
                let row: Vec<SimDuration> = (0..4)
                    .map(|_| SimDuration::from_nanos(rng.range_u64(1_000, 10_000_000)))
                    .collect();
                let order = |r: &[SimDuration]| {
                    let mut idx: Vec<usize> = (0..r.len()).collect();
                    idx.sort_by_key(|&i| r[i]);
                    idx
                };
                let before = order(&row);
                let mut inflated = row.clone();
                crate::mapper::inflate_uncertain(&mut inflated, rng.range_f64(0.0, 0.5));
                assert_eq!(order(&inflated), before, "row ordering must survive inflation");
            }
        }
    }

    #[test]
    fn confident_predictions_keep_mapper_within_the_error_bar() {
        // Property (xrand-seeded): if every predicted cost is within a
        // relative factor (1 ± u) of the true cost and the mapper optimizes
        // the uncertainty-inflated predictions, the chosen assignment's
        // *true* makespan is within (1 + u)² of the true optimum — the
        // bound the confidence gate is designed around. With exact
        // predictions (u = 0) the assignment's makespan matches the true
        // argmin exactly.
        for seed in [13u64, 47, 101] {
            let mut rng = XorShift::new(seed);
            for trial in 0..25 {
                let queues = rng.range_u64(2, 6) as usize;
                let devices = rng.range_u64(2, 4) as usize;
                let truth: crate::mapper::CostMatrix = (0..queues)
                    .map(|_| {
                        (0..devices)
                            .map(|_| SimDuration::from_nanos(rng.range_u64(10_000, 10_000_000)))
                            .collect()
                    })
                    .collect();
                let u = if trial % 5 == 0 { 0.0 } else { rng.range_f64(0.0, 0.25) };
                let predicted: crate::mapper::CostMatrix = truth
                    .iter()
                    .map(|row| {
                        let mut r: Vec<SimDuration> =
                            row.iter().map(|&c| c * rng.range_f64(1.0 - u, 1.0 + u)).collect();
                        crate::mapper::inflate_uncertain(&mut r, u);
                        r
                    })
                    .collect();
                let mut scratch = crate::mapper::MapperScratch::new();
                let mut exact =
                    |costs| crate::mapper::adaptive(costs, None, u64::MAX, &mut scratch).mapping;
                let best = exact(&truth);
                let chosen = exact(&predicted);
                let mut load = vec![SimDuration::ZERO; devices];
                let actual = crate::mapper::makespan(&truth, &chosen.assignment, &mut load);
                let bound = best.makespan * ((1.0 + u) * (1.0 + u));
                assert!(
                    actual <= bound,
                    "seed {seed} trial {trial}: true makespan {actual} of the predicted \
                     assignment exceeds (1+u)² × optimal {bound} (u = {u:.3})"
                );
                if u == 0.0 {
                    assert_eq!(
                        actual, best.makespan,
                        "exact predictions must reproduce the true argmin makespan"
                    );
                }
            }
        }
    }
}
