//! Sliding-window samples and mini-batching (Section 6.2.1): a width-24
//! window slides over the series; the first `T_h = 12` steps are the input
//! and the remaining `T_f = 12` the ground truth. Splits are contiguous in
//! time (train, then validation, then test) and the scaler is fitted on the
//! training segment only.

use crate::scaler::StandardScaler;
use crate::simulator::TrafficData;
use d2stgnn_tensor::Array;
use rand::seq::SliceRandom;
use rand::Rng;

/// Which split a window belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// Training windows.
    Train,
    /// Validation windows (early stopping).
    Val,
    /// Test windows (reported metrics).
    Test,
}

/// One mini-batch of windows.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Normalized inputs `[B, T_h, N, 1]`.
    pub x: Array,
    /// Raw-scale targets `[B, T_f, N, 1]`.
    pub y: Array,
    /// Time-of-day slot per input step, flattened `[B * T_h]`.
    pub tod: Vec<usize>,
    /// Day-of-week per input step, flattened `[B * T_h]`.
    pub dow: Vec<usize>,
}

impl Batch {
    /// Stack raw `[T_h, N, 1]` windows and their clocks, as
    /// [`TrafficData::raw_window`] cuts them and a forecast request carries
    /// them, into a batch with the raw-scale targets `y`. The stacked inputs
    /// are z-scored by [`StandardScaler::transform`]: training, evaluation
    /// and serving all feed a model through this one function.
    ///
    /// `None` if there are no windows or their shapes differ.
    pub fn from_windows(
        scaler: &StandardScaler,
        windows: impl IntoIterator<Item = (Array, Vec<usize>, Vec<usize>)>,
        y: Array,
    ) -> Option<Self> {
        let (mut pages, mut tod, mut dow) = (vec![], vec![], vec![]);
        for (page, page_tod, page_dow) in windows {
            pages.push(page);
            tod.extend(page_tod);
            dow.extend(page_dow);
        }
        let raw = Array::stack(&pages.iter().collect::<Vec<_>>(), 0).ok()?;
        Some(Self {
            x: scaler.transform(&raw),
            y,
            tod,
            dow,
        })
    }

    /// Batch size.
    pub fn batch_size(&self) -> usize {
        self.x.shape()[0]
    }
}

/// Windowed view over a [`TrafficData`] with contiguous splits.
pub struct WindowedDataset {
    data: TrafficData,
    scaler: StandardScaler,
    th: usize,
    tf: usize,
    train_starts: Vec<usize>,
    val_starts: Vec<usize>,
    test_starts: Vec<usize>,
}

impl WindowedDataset {
    /// Build windows of `th` input + `tf` target steps with the given
    /// (train, val, test) fractions.
    ///
    /// # Panics
    /// If the series is too short to produce at least one window per split.
    pub fn new(data: TrafficData, th: usize, tf: usize, fractions: (f32, f32, f32)) -> Self {
        let t_total = data.num_steps();
        let w = th + tf;
        assert!(
            t_total >= 3 * w,
            "series too short: {t_total} steps for window {w}"
        );
        let (ftr, fva, _fte) = fractions;
        assert!(ftr > 0.0 && fva >= 0.0 && ftr + fva < 1.0, "bad fractions");
        let train_end = (t_total as f32 * ftr) as usize;
        let val_end = (t_total as f32 * (ftr + fva)) as usize;

        let starts_in = |lo: usize, hi: usize| -> Vec<usize> {
            if hi < w || lo > hi - w {
                Vec::new()
            } else {
                (lo..=hi - w).collect()
            }
        };
        let train_starts = starts_in(0, train_end);
        let val_starts = starts_in(train_end, val_end);
        let test_starts = starts_in(val_end, t_total);
        assert!(
            !train_starts.is_empty() && !test_starts.is_empty(),
            "splits produced no windows"
        );

        // Scaler fitted on training values only.
        let n = data.num_nodes();
        let scaler = StandardScaler::fit(&data.values.data()[..train_end * n]);

        Self {
            data,
            scaler,
            th,
            tf,
            train_starts,
            val_starts,
            test_starts,
        }
    }

    /// The underlying dataset.
    pub fn data(&self) -> &TrafficData {
        &self.data
    }

    /// The train-fitted scaler.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// Input window length.
    pub fn th(&self) -> usize {
        self.th
    }

    /// Forecast horizon length.
    pub fn tf(&self) -> usize {
        self.tf
    }

    /// Number of sensors.
    pub fn num_nodes(&self) -> usize {
        self.data.num_nodes()
    }

    /// Number of windows in a split.
    pub fn len(&self, split: Split) -> usize {
        self.starts(split).len()
    }

    /// Start offsets (into the raw series) of a split's windows.
    pub fn window_starts(&self, split: Split) -> &[usize] {
        self.starts(split)
    }

    /// `(train_end, val_end)` boundaries in raw time steps; classical
    /// baselines fit on `values[..train_end]`.
    pub fn split_bounds(&self) -> (usize, usize) {
        let train_end = self
            .train_starts
            .last()
            .map(|s| s + self.th + self.tf)
            .unwrap_or(0);
        let val_end = self
            .val_starts
            .last()
            .map(|s| s + self.th + self.tf)
            .unwrap_or(train_end);
        (train_end, val_end)
    }

    /// `true` if the split has no windows.
    pub fn is_empty(&self, split: Split) -> bool {
        self.starts(split).is_empty()
    }

    fn starts(&self, split: Split) -> &[usize] {
        match split {
            Split::Train => &self.train_starts,
            Split::Val => &self.val_starts,
            Split::Test => &self.test_starts,
        }
    }

    /// Assemble a batch from window indices within a split: each window's
    /// raw input and target pages are cut by [`TrafficData::raw_window`]
    /// and stacked by [`Batch::from_windows`].
    pub fn batch(&self, split: Split, indices: &[usize]) -> Batch {
        let (th, tf, n) = (self.th, self.tf, self.num_nodes());
        let starts: Vec<usize> = indices.iter().map(|&wi| self.starts(split)[wi]).collect();
        let targets: Vec<Array> = starts
            .iter()
            .map(|&s| self.data.raw_window(s + th, tf).0)
            .collect();
        let windows = starts.iter().map(|&s| self.data.raw_window(s, th));
        // Every window here has one shape, so only an empty `indices` leaves
        // nothing to stack.
        Array::stack(&targets.iter().collect::<Vec<_>>(), 0)
            .ok()
            .and_then(|y| Batch::from_windows(&self.scaler, windows, y))
            .unwrap_or_else(|| Batch {
                x: Array::zeros(&[0, th, n, 1]),
                y: Array::zeros(&[0, tf, n, 1]),
                tod: Vec::new(),
                dow: Vec::new(),
            })
    }

    /// Batches covering a split once: shuffled for training, in order
    /// otherwise. The last partial batch is kept.
    pub fn epoch_batches<R: Rng>(
        &self,
        split: Split,
        batch_size: usize,
        shuffle: bool,
        rng: &mut R,
    ) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..self.len(split)).collect();
        if shuffle {
            order.shuffle(rng);
        }
        order
            .chunks(batch_size.max(1))
            .map(|c| c.to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{simulate, SimulatorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn windowed() -> WindowedDataset {
        let data = simulate(&SimulatorConfig::tiny());
        WindowedDataset::new(data, 12, 12, (0.7, 0.1, 0.2))
    }

    #[test]
    fn split_sizes_are_disjoint_and_ordered() {
        let w = windowed();
        let total = w.data().num_steps();
        assert!(w.len(Split::Train) > w.len(Split::Test));
        assert!(w.len(Split::Test) > 0);
        assert!(!w.is_empty(Split::Val));
        // No window crosses the end of the series.
        let last = *w.starts(Split::Test).last().unwrap();
        assert!(last + 24 <= total);
    }

    #[test]
    fn batch_shapes_and_time_indices() {
        let w = windowed();
        let b = w.batch(Split::Train, &[0, 1, 2]);
        assert_eq!(b.x.shape(), &[3, 12, 12, 1]);
        assert_eq!(b.y.shape(), &[3, 12, 12, 1]);
        assert_eq!(b.tod.len(), 36);
        assert_eq!(b.dow.len(), 36);
        assert_eq!(b.batch_size(), 3);
        // Window 1 starts one step after window 0.
        assert_eq!(b.tod[12], b.tod[0] + 1);
    }

    #[test]
    fn inputs_are_normalized_targets_raw() {
        let w = windowed();
        let all: Vec<usize> = (0..w.len(Split::Train).min(50)).collect();
        let b = w.batch(Split::Train, &all);
        let xmean = b.x.mean_all();
        assert!(xmean.abs() < 1.0, "normalized mean {xmean}");
        let ymean = b.y.mean_all();
        assert!(ymean > 10.0, "raw target mean {ymean}");
        // Inverse transform of x reproduces raw values.
        let x0 = b.x.at(&[0, 0, 0, 0]);
        let raw = x0 * w.scaler().std() + w.scaler().mean();
        assert!((raw - w.data().values.at(&[0, 0])).abs() < 1e-3);
    }

    #[test]
    fn target_follows_input_window() {
        let w = windowed();
        let b = w.batch(Split::Train, &[5]);
        // y[0] equals raw series at start+th.
        let start = 5;
        assert_eq!(b.y.at(&[0, 0, 3, 0]), w.data().values.at(&[start + 12, 3]));
        assert_eq!(b.y.at(&[0, 11, 3, 0]), w.data().values.at(&[start + 23, 3]));
    }

    #[test]
    fn epoch_batches_cover_everything_once() {
        let w = windowed();
        let mut rng = StdRng::seed_from_u64(0);
        let batches = w.epoch_batches(Split::Train, 32, true, &mut rng);
        let mut seen: Vec<usize> = batches.into_iter().flatten().collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..w.len(Split::Train)).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn too_short_series_rejected() {
        let mut cfg = SimulatorConfig::tiny();
        cfg.num_steps = 30;
        let data = simulate(&cfg);
        WindowedDataset::new(data, 12, 12, (0.7, 0.1, 0.2));
    }
}
