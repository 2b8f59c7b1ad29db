//! Classical (non-neural) baselines of Table 3: Historical Average, Vector
//! Auto-Regression, and linear Support Vector Regression.

use d2stgnn_data::{metrics, Metrics, Split, WindowedDataset};
use d2stgnn_tensor::Array;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A forecaster fitted once on the training segment and queried per window.
pub trait ClassicalForecaster {
    /// Fit on the training portion of the dataset.
    fn fit(&mut self, data: &WindowedDataset);

    /// Predict `[T_f, N]` raw-scale values for the window whose *input* ends
    /// at raw time step `t_end - 1` (i.e. the window occupies
    /// `[t_end - th, t_end)` and the targets are `[t_end, t_end + tf)`).
    fn predict(&self, data: &WindowedDataset, t_end: usize) -> Array;

    /// Display name.
    fn name(&self) -> String;
}

/// Evaluate a fitted classical forecaster on a split; returns the stacked
/// predictions/targets `[S, T_f, N]` plus the per-horizon metrics.
pub fn evaluate_classical<F: ClassicalForecaster>(
    model: &F,
    data: &WindowedDataset,
    split: Split,
    null_val: f32,
) -> (Array, Array, Vec<(usize, Metrics)>) {
    let starts = data.window_starts(split);
    let (tf, n) = (data.tf(), data.num_nodes());
    let values = data.data().values.data();
    let (mut pred, mut target) = (Vec::new(), Vec::new());
    for &start in starts {
        let t_end = start + data.th();
        let p = model.predict(data, t_end);
        assert_eq!(p.shape(), &[tf, n], "{} returned a bad shape", model.name());
        pred.extend_from_slice(p.data());
        target.extend_from_slice(&values[t_end * n..(t_end + tf) * n]);
    }
    let shape = [starts.len(), tf, n];
    let pred = crate::error::require(Array::from_vec(&shape, pred), "prediction shape");
    let target = crate::error::require(Array::from_vec(&shape, target), "target shape");
    let hs: Vec<usize> = [3, 6, 12].into_iter().filter(|h| *h <= tf).collect();
    let horizons = metrics::evaluate_horizons(&pred, &target, &hs, null_val);
    (pred, target, horizons)
}

// ----------------------------------------------------------------------
// Historical Average
// ----------------------------------------------------------------------

/// Historical Average: traffic as a periodic process — the prediction for a
/// future slot is the training-set average of that (time-of-day, weekday/
/// weekend) slot for that sensor.
#[derive(Clone)]
pub struct HistoricalAverage {
    /// `[2 * steps_per_day, N]` means, one row per (day class, slot): row
    /// `class * steps_per_day + slot` (weekday class 0, weekend class 1).
    table: Option<Array>,
    steps_per_day: usize,
}

impl HistoricalAverage {
    /// New unfitted model.
    pub fn new() -> Self {
        Self {
            table: None,
            steps_per_day: 0,
        }
    }

    fn day_class(dow: usize) -> usize {
        usize::from(dow >= 5)
    }

    /// Steps per day the table was fitted with (`0` before [`fit`]).
    ///
    /// [`fit`]: ClassicalForecaster::fit
    pub fn steps_per_day(&self) -> usize {
        self.steps_per_day
    }

    /// `true` once [`ClassicalForecaster::fit`] has run.
    pub fn is_fitted(&self) -> bool {
        self.table.is_some()
    }

    /// Predict `[tf, N]` raw-scale values for forecast steps starting at the
    /// given `(day-of-week, time-of-day slot)`, without needing the dataset.
    ///
    /// This is the serving entry point: a live request knows only the clock
    /// position of its first forecast step. Slots wrap around midnight and
    /// advance the weekday.
    ///
    /// # Panics
    /// If the model is unfitted.
    pub fn predict_slots(&self, start_dow: usize, start_slot: usize, tf: usize) -> Array {
        let table = crate::error::required(
            self.table.as_ref(),
            "HistoricalAverage::fit() must run before predict()",
        );
        let spd = self.steps_per_day;
        let rows: Vec<usize> = (start_slot..start_slot + tf)
            .map(|abs| Self::day_class((start_dow + abs / spd) % 7) * spd + abs % spd)
            .collect();
        table.index_select(0, &rows)
    }
}

impl Default for HistoricalAverage {
    fn default() -> Self {
        Self::new()
    }
}

impl ClassicalForecaster for HistoricalAverage {
    fn fit(&mut self, data: &WindowedDataset) {
        let raw = data.data();
        let (train_end, _) = data.split_bounds();
        let (spd, n) = (raw.steps_per_day, raw.num_nodes());
        let mut sums = vec![0f64; 2 * spd * n];
        let mut counts = vec![0usize; 2 * spd * n];
        for (t, row) in raw.values.data().chunks(n).take(train_end).enumerate() {
            let cell = (Self::day_class(raw.day_of_week(t)) * spd + raw.time_of_day(t)) * n;
            let cells = sums[cell..cell + n]
                .iter_mut()
                .zip(&mut counts[cell..cell + n]);
            for ((sum, count), &v) in cells.zip(row) {
                if v != 0.0 {
                    *sum += v as f64;
                    *count += 1;
                }
            }
        }
        // Global fallback mean for never-seen slots.
        let global = {
            let s: f64 = sums.iter().sum();
            let c: usize = counts.iter().sum();
            if c > 0 {
                (s / c as f64) as f32
            } else {
                0.0
            }
        };
        let table_data: Vec<f32> = sums
            .iter()
            .zip(&counts)
            .map(|(s, c)| {
                if *c > 0 {
                    (*s / *c as f64) as f32
                } else {
                    global
                }
            })
            .collect();
        self.table = Some(crate::error::require(
            Array::from_vec(&[2 * spd, n], table_data),
            "table shape",
        ));
        self.steps_per_day = spd;
    }

    fn predict(&self, data: &WindowedDataset, t_end: usize) -> Array {
        let raw = data.data();
        self.predict_slots(raw.day_of_week(t_end), raw.time_of_day(t_end), data.tf())
    }

    fn name(&self) -> String {
        "HA".to_string()
    }
}

// ----------------------------------------------------------------------
// Vector Auto-Regression
// ----------------------------------------------------------------------

/// Vector Auto-Regression of order `p`, fitted by ridge-regularized least
/// squares on the normalized training series; multi-step forecasts iterate
/// the one-step model.
pub struct VectorAutoRegression {
    /// Lag order.
    p: usize,
    /// Ridge strength.
    lambda: f64,
    /// Coefficients `[N*p + 1, N]` (last row = intercept), normalized scale.
    coef: Option<Array>,
}

impl VectorAutoRegression {
    /// New unfitted VAR(p).
    pub fn new(p: usize, lambda: f64) -> Self {
        assert!(p >= 1, "VAR order must be >= 1");
        Self {
            p,
            lambda,
            coef: None,
        }
    }

    /// Lag order.
    pub fn order(&self) -> usize {
        self.p
    }
}

impl ClassicalForecaster for VectorAutoRegression {
    fn fit(&mut self, data: &WindowedDataset) {
        let raw = data.data();
        let (train_end, _) = data.split_bounds();
        let n = raw.num_nodes();
        let p = self.p;
        assert!(train_end > p + 1, "not enough training data for VAR({p})");
        let d = n * p + 1;
        // Normal equations on normalized data: (XᵀX + λI) W = XᵀY.
        let z = data
            .scaler()
            .transform(&raw.values.slice_axis(0, 0, train_end));
        let rows: Vec<&[f32]> = z.data().chunks(n).collect();
        let mut xtx = vec![0f64; d * d];
        let mut xty = vec![0f64; d * n];
        let mut xrow = vec![0f64; d];
        for t in p..train_end {
            // The p lagged rows, newest first, then the intercept.
            let lagged = rows[t - p..t].iter().rev().flat_map(|row| row.iter());
            for (x, &v) in xrow.iter_mut().zip(lagged) {
                *x = v as f64;
            }
            xrow[d - 1] = 1.0;
            let target: Vec<f64> = rows[t].iter().map(|&v| v as f64).collect();
            for (a, &xa) in xrow.iter().enumerate() {
                if xa == 0.0 {
                    continue;
                }
                for (acc, &xb) in xtx[a * d + a..(a + 1) * d].iter_mut().zip(&xrow[a..]) {
                    *acc += xa * xb;
                }
                for (acc, &y) in xty[a * n..(a + 1) * n].iter_mut().zip(&target) {
                    *acc += xa * y;
                }
            }
        }
        // Symmetrize and regularize.
        for a in 0..d {
            for b in 0..a {
                xtx[a * d + b] = xtx[b * d + a];
            }
            xtx[a * d + a] += self.lambda;
        }
        let w = solve_multi(&xtx, &xty, d, n);
        self.coef = Some(crate::error::require(
            Array::from_vec(&[d, n], w.iter().map(|v| *v as f32).collect()),
            "coef shape",
        ));
    }

    fn predict(&self, data: &WindowedDataset, t_end: usize) -> Array {
        let coef =
            crate::error::required(self.coef.as_ref(), "Var::fit() must run before predict()");
        let scaler = data.scaler();
        let (tf, n, p) = (data.tf(), data.num_nodes(), self.p);
        // History buffer, newest first, normalized.
        let recent = scaler.transform(&data.data().values.slice_axis(0, t_end - p, t_end));
        let mut history: Vec<Vec<f32>> =
            recent.data().chunks(n).rev().map(<[f32]>::to_vec).collect();
        // `coef` rows are the lagged inputs in history order, then the intercept.
        let (weights, intercept) = coef.data().split_at(n * p * n);
        let mut forecast = Vec::with_capacity(tf * n);
        for _ in 0..tf {
            let next: Vec<f32> = intercept
                .iter()
                .enumerate()
                .map(|(j, &b)| {
                    let column = weights.iter().skip(j).step_by(n);
                    column
                        .zip(history.iter().flatten())
                        .fold(b, |acc, (w, v)| acc + w * v)
                })
                .collect();
            forecast.extend_from_slice(&next);
            history.rotate_right(1);
            history[0] = next;
        }
        let forecast = crate::error::require(Array::from_vec(&[tf, n], forecast), "forecast shape");
        scaler.inverse_transform(&forecast)
    }

    fn name(&self) -> String {
        format!("VAR({})", self.p)
    }
}

/// Solve `A W = B` for `W` (`A` is `d x d`, `B` is `d x m`) by Gaussian
/// elimination with partial pivoting. Panics on a singular system.
fn solve_multi(a: &[f64], b: &[f64], d: usize, m: usize) -> Vec<f64> {
    let mut aug = vec![0f64; d * (d + m)];
    for r in 0..d {
        aug[r * (d + m)..r * (d + m) + d].copy_from_slice(&a[r * d..(r + 1) * d]);
        aug[r * (d + m) + d..(r + 1) * (d + m)].copy_from_slice(&b[r * m..(r + 1) * m]);
    }
    let w = d + m;
    for col in 0..d {
        // Partial pivot.
        let pivot = crate::error::required(
            (col..d).max_by(|&r1, &r2| aug[r1 * w + col].abs().total_cmp(&aug[r2 * w + col].abs())),
            "pivot search range is non-empty",
        );
        assert!(
            aug[pivot * w + col].abs() > 1e-12,
            "singular system in ridge solve"
        );
        if pivot != col {
            for k in 0..w {
                aug.swap(col * w + k, pivot * w + k);
            }
        }
        let diag = aug[col * w + col];
        for k in col..w {
            aug[col * w + k] /= diag;
        }
        for r in 0..d {
            if r == col {
                continue;
            }
            let factor = aug[r * w + col];
            if factor == 0.0 {
                continue;
            }
            for k in col..w {
                aug[r * w + k] -= factor * aug[col * w + k];
            }
        }
    }
    let mut out = vec![0f64; d * m];
    for r in 0..d {
        out[r * m..(r + 1) * m].copy_from_slice(&aug[r * w + d..(r + 1) * w]);
    }
    out
}

// ----------------------------------------------------------------------
// Linear SVR
// ----------------------------------------------------------------------

/// Linear support vector regression with an epsilon-insensitive loss,
/// trained by SGD. One linear model per forecast horizon over a sensor's own
/// lag window (weights shared across sensors), the classic per-series SVR
/// setup of the traffic-forecasting literature.
pub struct LinearSvr {
    epsilon: f32,
    lr: f32,
    l2: f32,
    epochs: usize,
    max_samples: usize,
    /// `[tf, th + 1]` weights (+ bias), normalized scale.
    weights: Option<Array>,
    seed: u64,
}

impl LinearSvr {
    /// New unfitted SVR with sensible defaults.
    pub fn new() -> Self {
        Self {
            epsilon: 0.05,
            lr: 0.01,
            l2: 1e-4,
            epochs: 5,
            max_samples: 20_000,
            weights: None,
            seed: 13,
        }
    }
}

impl Default for LinearSvr {
    fn default() -> Self {
        Self::new()
    }
}

impl ClassicalForecaster for LinearSvr {
    fn fit(&mut self, data: &WindowedDataset) {
        let raw = data.data();
        let scaler = data.scaler();
        let (train_end, _) = data.split_bounds();
        let (th, tf, n) = (data.th(), data.tf(), data.num_nodes());
        let feat = th + 1;
        let mut w = vec![0f32; tf * feat];
        let mut rng = StdRng::seed_from_u64(self.seed);
        let z = scaler.transform(&raw.values.slice_axis(0, 0, train_end));
        let usable = train_end.saturating_sub(th + tf);
        assert!(usable > 0, "not enough training data for SVR");
        let samples = usable * n;
        let draws = samples.min(self.max_samples);
        for _ in 0..self.epochs {
            for _ in 0..draws {
                let start = rng.gen_range(0..usable);
                let node = rng.gen_range(0..n);
                // The sensor's normalized series: th inputs, then tf targets.
                let series: Vec<f32> = z.data()[start * n + node..]
                    .iter()
                    .step_by(n)
                    .take(th + tf)
                    .copied()
                    .collect();
                let (x, targets) = series.split_at(th);
                for (h, &y) in targets.iter().enumerate() {
                    let wrow = &mut w[h * feat..(h + 1) * feat];
                    let pred: f32 = wrow[..th]
                        .iter()
                        .zip(x)
                        .map(|(wv, xv)| wv * xv)
                        .sum::<f32>()
                        + wrow[th];
                    let err = pred - y;
                    // Epsilon-insensitive subgradient.
                    let g = if err > self.epsilon {
                        1.0
                    } else if err < -self.epsilon {
                        -1.0
                    } else {
                        0.0
                    };
                    for (k, xv) in x.iter().enumerate() {
                        wrow[k] -= self.lr * (g * xv + self.l2 * wrow[k]);
                    }
                    wrow[th] -= self.lr * g;
                }
            }
        }
        self.weights = Some(crate::error::require(
            Array::from_vec(&[tf, feat], w),
            "weights shape",
        ));
    }

    fn predict(&self, data: &WindowedDataset, t_end: usize) -> Array {
        let w = crate::error::required(
            self.weights.as_ref(),
            "LinearSvr::fit() must run before predict()",
        );
        let scaler = data.scaler();
        let (th, tf, n) = (data.th(), data.tf(), data.num_nodes());
        let recent = scaler.transform(&data.data().values.slice_axis(0, t_end - th, t_end));
        // Each sensor's normalized input window.
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|i| recent.data().iter().skip(i).step_by(n).copied().collect())
            .collect();
        // One weight row (th weights, then the bias) per forecast step.
        let forecast: Vec<f32> = w
            .data()
            .chunks(th + 1)
            .flat_map(|wrow| {
                let (weights, bias) = (&wrow[..th], wrow[th]);
                inputs
                    .iter()
                    .map(move |x| weights.iter().zip(x).map(|(w, x)| w * x).sum::<f32>() + bias)
            })
            .collect();
        let forecast = crate::error::require(Array::from_vec(&[tf, n], forecast), "forecast shape");
        scaler.inverse_transform(&forecast)
    }

    fn name(&self) -> String {
        "SVR".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2stgnn_data::{simulate, SimulatorConfig};

    fn dataset() -> WindowedDataset {
        let mut cfg = SimulatorConfig::tiny();
        cfg.num_nodes = 8;
        cfg.num_steps = 7 * 288;
        WindowedDataset::new(simulate(&cfg), 12, 12, (0.7, 0.1, 0.2))
    }

    #[test]
    fn solve_multi_identity_and_known() {
        // A = I -> W = B.
        let a = vec![1., 0., 0., 1.];
        let b = vec![3., 4.];
        assert_eq!(solve_multi(&a, &b, 2, 1), vec![3., 4.]);
        // 2x2 system.
        let a = vec![2., 1., 1., 3.];
        let b = vec![5., 10.];
        let w = solve_multi(&a, &b, 2, 1);
        assert!((2.0 * w[0] + w[1] - 5.0).abs() < 1e-9);
        assert!((w[0] + 3.0 * w[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn solve_multi_rejects_singular() {
        let a = vec![1., 1., 1., 1.];
        let b = vec![1., 2.];
        solve_multi(&a, &b, 2, 1);
    }

    #[test]
    fn ha_beats_trivial_zero_prediction() {
        let data = dataset();
        let mut ha = HistoricalAverage::new();
        ha.fit(&data);
        let (pred, target, horizons) = evaluate_classical(&ha, &data, Split::Test, 0.0);
        assert_eq!(pred.shape(), target.shape());
        let mae = horizons[0].1.mae;
        let naive_mae =
            metrics::Metrics::compute(&vec![0.0; target.numel()], target.data(), 0.0).mae;
        assert!(mae < naive_mae * 0.3, "HA MAE {mae} vs naive {naive_mae}");
    }

    #[test]
    fn ha_prediction_is_periodic() {
        let data = dataset();
        let mut ha = HistoricalAverage::new();
        ha.fit(&data);
        let start = data.window_starts(Split::Test)[0];
        let p1 = ha.predict(&data, start + 12);
        let p2 = ha.predict(&data, start + 12 + 288); // same weekday class? may differ
        assert_eq!(p1.shape(), &[12, 8]);
        assert_eq!(p2.shape(), &[12, 8]);
    }

    #[test]
    fn var_one_step_beats_ha_short_horizon() {
        let data = dataset();
        let mut var = VectorAutoRegression::new(3, 1.0);
        var.fit(&data);
        let mut ha = HistoricalAverage::new();
        ha.fit(&data);
        let (_, _, var_h) = evaluate_classical(&var, &data, Split::Test, 0.0);
        let (_, _, ha_h) = evaluate_classical(&ha, &data, Split::Test, 0.0);
        // At horizon 3 the autoregressive structure should beat a pure
        // periodic average on this strongly autocorrelated signal.
        assert!(
            var_h[0].1.mae < ha_h[0].1.mae,
            "VAR {} !< HA {}",
            var_h[0].1.mae,
            ha_h[0].1.mae
        );
    }

    #[test]
    fn var_error_grows_with_horizon() {
        let data = dataset();
        let mut var = VectorAutoRegression::new(2, 1.0);
        var.fit(&data);
        let (_, _, h) = evaluate_classical(&var, &data, Split::Test, 0.0);
        assert!(h[0].1.mae <= h[2].1.mae, "horizon 3 worse than 12?");
    }

    #[test]
    fn svr_fits_and_predicts_reasonably() {
        let data = dataset();
        let mut svr = LinearSvr::new();
        svr.fit(&data);
        let (_, target, h) = evaluate_classical(&svr, &data, Split::Test, 0.0);
        let mean = target.mean_all();
        assert!(
            h[0].1.mae < mean * 0.25,
            "SVR MAE {} vs mean {mean}",
            h[0].1.mae
        );
    }

    #[test]
    fn names() {
        assert_eq!(HistoricalAverage::new().name(), "HA");
        assert_eq!(VectorAutoRegression::new(3, 1.0).name(), "VAR(3)");
        assert_eq!(LinearSvr::new().name(), "SVR");
    }

    #[test]
    #[should_panic(expected = "fit() must run")]
    fn predict_before_fit_panics() {
        let data = dataset();
        HistoricalAverage::new().predict(&data, 12);
    }
}
