//! Synthetic traffic simulator.
//!
//! Stands in for the loop-detector recordings (METR-LA, PEMS-BAY, PEMS04,
//! PEMS08) that the paper evaluates on and that are not available here. The
//! generative model *is* the paper's premise (Section 1, Figure 2): every
//! sensor's reading is the superposition of
//!
//! 1. a **hidden inherent series** — traffic originating near the sensor:
//!    node-specific morning/evening peaks, weekday/weekend modulation, and
//!    AR(1) local noise; and
//! 2. a **hidden diffusion series** — traffic propagated from neighbouring
//!    sensors over the road graph with a lag, whose coupling strength varies
//!    with the time of day (the *dynamic spatial dependency* of Fig. 2(c)).
//!
//! Because both ground-truth components are returned, tests can verify that
//! the decoupling framework actually separates them, which no real dataset
//! allows.

use d2stgnn_graph::{transition, CsrMatrix, SparseNetwork, TrafficNetwork};
use d2stgnn_tensor::Array;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Whether a dataset records speeds (mph, bounded) or flows (vehicle counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SignalKind {
    /// Average speed in mph, float, bounded by the speed limit (~70).
    Speed,
    /// Vehicle count per interval, non-negative integer, up to hundreds.
    Flow,
}

/// Configuration of one simulated dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimulatorConfig {
    /// Number of sensors.
    pub num_nodes: usize,
    /// Number of 5-minute time steps to generate.
    pub num_steps: usize,
    /// Time slots per day (288 for 5-minute sampling, the paper's rate).
    pub steps_per_day: usize,
    /// Signal type.
    pub kind: SignalKind,
    /// Neighbours per sensor in the random geometric road graph.
    pub knn: usize,
    /// Gaussian-kernel sparsity threshold for the adjacency.
    pub kappa: f32,
    /// Spatial diffusion order used by the generator.
    pub ks: usize,
    /// Temporal diffusion lag used by the generator.
    pub kt: usize,
    /// Base coupling strength of the diffusion component (0..1).
    pub diffusion_strength: f32,
    /// Amplitude of the time-of-day modulation of the coupling (0..1),
    /// i.e. how *dynamic* the spatial dependency is.
    pub dynamic_amplitude: f32,
    /// Std-dev of the AR(1) innovation noise, in signal units.
    pub noise_std: f32,
    /// Per-node, per-step probability that a traffic incident starts. An
    /// incident congests its node for 30 minutes to 3 hours and spreads to
    /// neighbours through the diffusion term — unpredictable from
    /// climatology, predictable from recent readings, which is exactly what
    /// separates the deep models from Historical Average in Table 3.
    pub incident_rate: f32,
    /// Day-to-day variability: each (node, day) draws a congestion amplitude
    /// factor in `1 ± day_variability`.
    pub day_variability: f32,
    /// Probability that a sensor drops out for a stretch (records zeros),
    /// mimicking the failures visible in the paper's Figure 8.
    pub failure_prob: f32,
    /// RNG seed; everything downstream is deterministic in this.
    pub seed: u64,
}

impl SimulatorConfig {
    /// A small default useful in tests: 12 nodes, 3 days of speed data.
    pub fn tiny() -> Self {
        Self {
            num_nodes: 12,
            num_steps: 3 * 288,
            steps_per_day: 288,
            kind: SignalKind::Speed,
            knn: 3,
            kappa: 0.05,
            ks: 2,
            kt: 2,
            diffusion_strength: 0.35,
            dynamic_amplitude: 0.5,
            noise_std: 1.2,
            incident_rate: 0.0012,
            day_variability: 0.25,
            failure_prob: 0.0005,
            seed: 42,
        }
    }
}

/// A generated dataset: the road network, the observed signal, and the two
/// hidden ground-truth components (observed = inherent + diffusion, before
/// the final clipping/rounding of the signal kind).
#[derive(Clone, Debug)]
pub struct TrafficData {
    /// The road network the signal diffuses over.
    pub network: TrafficNetwork,
    /// Observed signal `[T, N]`.
    pub values: Array,
    /// Hidden inherent component `[T, N]`.
    pub inherent: Array,
    /// Hidden diffusion component `[T, N]`.
    pub diffusion: Array,
    /// Slots per day.
    pub steps_per_day: usize,
    /// Signal type.
    pub kind: SignalKind,
}

impl TrafficData {
    /// Number of time steps.
    pub fn num_steps(&self) -> usize {
        self.values.shape()[0]
    }

    /// Number of sensors.
    pub fn num_nodes(&self) -> usize {
        self.values.shape()[1]
    }

    /// Time-of-day slot index for step `t`.
    pub fn time_of_day(&self, t: usize) -> usize {
        t % self.steps_per_day
    }

    /// Day-of-week index (0..7) for step `t`.
    pub fn day_of_week(&self, t: usize) -> usize {
        (t / self.steps_per_day) % 7
    }

    /// The unscaled window of steps `start..start + len`, as a forecast
    /// request carries it: values `[len, N, 1]` plus each step's time-of-day
    /// slot and day of week.
    ///
    /// # Panics
    /// If the window runs past the last step.
    pub fn raw_window(&self, start: usize, len: usize) -> (Array, Vec<usize>, Vec<usize>) {
        let n = self.num_nodes();
        let mut window = Array::zeros(&[len, n, 1]);
        window
            .data_mut()
            .copy_from_slice(&self.values.data()[start * n..(start + len) * n]);
        let steps = start..start + len;
        let tod = steps.clone().map(|t| self.time_of_day(t)).collect();
        let dow = steps.map(|t| self.day_of_week(t)).collect();
        (window, tod, dow)
    }
}

/// Generate a dataset from the config (deterministic in `config.seed`).
///
/// Builds a random geometric [`TrafficNetwork`] and runs the generator's
/// recurrence over its forward transition, keeping both hidden components.
pub fn simulate(config: &SimulatorConfig) -> TrafficData {
    let mut rng = seeded_rng(config);
    let network =
        TrafficNetwork::random_geometric(config.num_nodes, config.knn, config.kappa, &mut rng);
    let p_f = SparseNetwork::from_network(&network).forward_transition();
    let mut inherent = Array::zeros(&[config.num_steps, config.num_nodes]);
    let mut diffusion = Array::zeros(&[config.num_steps, config.num_nodes]);
    let hidden = Some((&mut inherent, &mut diffusion));
    let values = generate(config, &p_f, &mut rng, hidden);
    TrafficData {
        network,
        values,
        inherent,
        diffusion,
        steps_per_day: config.steps_per_day,
        kind: config.kind,
    }
}

/// Configuration of a city-scale simulated dataset. Same generative model as
/// [`SimulatorConfig`], but the road network is a [`SparseNetwork`] built by
/// the O(n · degree) grid generator, so 10k–100k-node networks are
/// practical.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CityConfig {
    /// Number of sensors (10k–100k is the intended range; any n ≥ 1 works).
    pub num_nodes: usize,
    /// Number of 5-minute time steps to generate.
    pub num_steps: usize,
    /// Time slots per day (288 for 5-minute sampling).
    pub steps_per_day: usize,
    /// Signal type.
    pub kind: SignalKind,
    /// Maximum out-degree per sensor (real road graphs stay ≤ ~6).
    pub max_degree: usize,
    /// Gaussian-kernel sparsity threshold for the adjacency.
    pub kappa: f32,
    /// Spatial diffusion order used by the generator.
    pub ks: usize,
    /// Temporal diffusion lag used by the generator.
    pub kt: usize,
    /// Base coupling strength of the diffusion component (0..1).
    pub diffusion_strength: f32,
    /// Amplitude of the time-of-day modulation of the coupling (0..1).
    pub dynamic_amplitude: f32,
    /// Std-dev of the AR(1) innovation noise, in signal units.
    pub noise_std: f32,
    /// Per-node, per-step probability that a traffic incident starts.
    pub incident_rate: f32,
    /// Day-to-day congestion amplitude variability.
    pub day_variability: f32,
    /// Probability that a sensor drops out for a stretch (records zeros).
    pub failure_prob: f32,
    /// RNG seed; everything downstream is deterministic in this.
    pub seed: u64,
}

impl CityConfig {
    /// Defaults for an `num_nodes`-sensor city: one day of speed data,
    /// degree-6 road graph, the same dynamics constants as
    /// [`SimulatorConfig::tiny`].
    pub fn with_nodes(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            num_steps: 288,
            steps_per_day: 288,
            kind: SignalKind::Speed,
            max_degree: 6,
            kappa: 0.05,
            ks: 2,
            kt: 2,
            diffusion_strength: 0.35,
            dynamic_amplitude: 0.5,
            noise_std: 1.2,
            incident_rate: 0.0012,
            day_variability: 0.25,
            failure_prob: 0.0005,
            seed: 42,
        }
    }

    /// The same model as a [`SimulatorConfig`], the form [`generate`] reads.
    /// `knn` carries `max_degree` but is never read: the city's transition
    /// is passed in.
    fn dynamics(&self) -> SimulatorConfig {
        SimulatorConfig {
            num_nodes: self.num_nodes,
            num_steps: self.num_steps,
            steps_per_day: self.steps_per_day,
            kind: self.kind,
            knn: self.max_degree,
            kappa: self.kappa,
            ks: self.ks,
            kt: self.kt,
            diffusion_strength: self.diffusion_strength,
            dynamic_amplitude: self.dynamic_amplitude,
            noise_std: self.noise_std,
            incident_rate: self.incident_rate,
            day_variability: self.day_variability,
            failure_prob: self.failure_prob,
            seed: self.seed,
        }
    }
}

/// A generated city-scale dataset. Unlike [`TrafficData`] the hidden
/// components are not retained — at 100k nodes each extra `[T, N]` array is
/// real memory, and the decoupling-verification tests that need them run on
/// [`simulate`].
#[derive(Clone, Debug)]
pub struct CityData {
    /// The sparse road network the signal diffuses over.
    pub network: SparseNetwork,
    /// Observed signal `[T, N]`.
    pub values: Array,
    /// Slots per day.
    pub steps_per_day: usize,
    /// Signal type.
    pub kind: SignalKind,
}

/// Generate a city-scale dataset (deterministic in `config.seed`).
///
/// Builds the road network with [`SparseNetwork::random_city`] (grid plus
/// shortcuts, bounded degree) and runs the same recurrence as [`simulate`]
/// over its forward transition, keeping only the observed signal.
pub fn simulate_city(config: &CityConfig) -> CityData {
    let dynamics = config.dynamics();
    let mut rng = seeded_rng(&dynamics);
    let network =
        SparseNetwork::random_city(config.num_nodes, config.max_degree, config.kappa, &mut rng);
    let values = generate(&dynamics, &network.forward_transition(), &mut rng, None);
    CityData {
        network,
        values,
        steps_per_day: config.steps_per_day,
        kind: config.kind,
    }
}

/// Check the sizes a simulation needs and seed the RNG that builds its
/// network and then drives [`generate`].
fn seeded_rng(config: &SimulatorConfig) -> StdRng {
    assert!(
        config.num_nodes > 0 && config.num_steps > 0,
        "empty simulation"
    );
    assert!(config.steps_per_day > 0, "steps_per_day must be positive");
    StdRng::seed_from_u64(config.seed)
}

/// The generator's per-step recurrence: inherent profile plus lagged graph
/// diffusion of the observed deviation, through the masked powers
/// `mask(P_f^k)`, `k = 1..=ks`, of the `[N, N]` forward transition `p_f`.
/// Each (lag, order) pair costs one `[N, N] × [N, 1]` spmm, O(nnz). Returns
/// the observed `[T, N]` signal; given `hidden`, also writes the inherent and
/// diffusion components into those two `[T, N]` arrays.
fn generate(
    config: &SimulatorConfig,
    p_f: &CsrMatrix,
    rng: &mut StdRng,
    mut hidden: Option<(&mut Array, &mut Array)>,
) -> Array {
    let (t_total, n) = (config.num_steps, config.num_nodes);

    // Per-node inherent profile parameters. Only congestion diffuses, not
    // the base level, which keeps the process stable: `base_frac` of each
    // node's base is taken off an observation before it propagates.
    let (base, scale_cap, base_frac) = match config.kind {
        SignalKind::Speed => (55.0f32, 70.0f32, 1.0f32),
        SignalKind::Flow => (180.0f32, 500.0f32, 0.35f32),
    };
    let node_base: Vec<f32> = (0..n).map(|_| base * rng.gen_range(0.85..1.15)).collect();
    // Morning vs evening peak mix per node (Figure 8 shows node 2 congests in
    // the morning, node 111 in the evening).
    let morning_amp: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..0.5)).collect();
    let evening_amp: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..0.5)).collect();
    let peak_width: Vec<f32> = (0..n).map(|_| rng.gen_range(0.04..0.10)).collect();
    let phase_jitter: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.02..0.02)).collect();

    // AR(1) noise state per node.
    let mut ar: Vec<f32> = vec![0.0; n];
    let rho = 0.9f32;

    let powers = transition::masked_powers_csr(p_f, config.ks);

    let mut values = Array::zeros(&[t_total, n]);
    let mut inherent_row: Vec<f32> = vec![0.0; n];
    let mut diffusion_row: Vec<f32> = vec![0.0; n];
    let mut dev = Array::zeros(&[n, 1]);

    // Sensor-failure bookkeeping: when triggered, a sensor reads zero for a
    // geometric-length stretch.
    let mut failed_until: Vec<usize> = vec![0; n];

    // Incident state: (active-until step, severity) per node.
    let mut incident_until: Vec<usize> = vec![0; n];
    let mut incident_severity: Vec<f32> = vec![0.0; n];
    // Per-(node, day) congestion amplitude factor, resampled at each day
    // boundary: the day-to-day variability real datasets show.
    let mut day_factor: Vec<f32> = vec![1.0; n];
    let mut current_day = usize::MAX;

    for t in 0..t_total {
        let tod = (t % config.steps_per_day) as f32 / config.steps_per_day as f32;
        let dow = (t / config.steps_per_day) % 7;
        let weekend = if dow >= 5 { 0.45 } else { 1.0 };

        // Resample per-day amplitude factors at day boundaries.
        let day = t / config.steps_per_day;
        if day != current_day {
            current_day = day;
            for f in &mut day_factor {
                *f = 1.0 + config.day_variability * rng.gen_range(-1.0f32..1.0);
            }
        }

        // --- inherent component ---
        for i in 0..n {
            // Incident dynamics: start/expire local congestion events.
            if incident_until[i] <= t && rng.gen::<f32>() < config.incident_rate {
                incident_until[i] = t + rng.gen_range(6..36); // 30 min .. 3 h
                incident_severity[i] = rng.gen_range(0.25..0.6);
            }
            let incident = if t < incident_until[i] {
                incident_severity[i]
            } else {
                0.0
            };
            let morning = gaussian_bump(tod, 8.0 / 24.0 + phase_jitter[i], peak_width[i]);
            let evening = gaussian_bump(tod, 17.5 / 24.0 + phase_jitter[i], peak_width[i]);
            let congestion =
                (weekend * day_factor[i] * (morning_amp[i] * morning + evening_amp[i] * evening)
                    + incident)
                    .min(0.95);
            ar[i] = rho * ar[i] + rng.gen_range(-1.0f32..1.0) * config.noise_std;
            inherent_row[i] = match config.kind {
                // Congestion lowers speed.
                SignalKind::Speed => node_base[i] * (1.0 - congestion) + ar[i],
                // Congestion raises flow.
                SignalKind::Flow => node_base[i] * (0.35 + congestion * 1.8) + ar[i] * 4.0,
            };
        }

        // --- diffusion component: lagged graph propagation of the *observed*
        // signal with time-varying coupling ---
        let gamma_t = config.diffusion_strength
            * (1.0
                + config.dynamic_amplitude
                    * (2.0 * std::f32::consts::PI * tod - std::f32::consts::FRAC_PI_2).sin())
            / (config.ks * config.kt) as f32;
        diffusion_row.fill(0.0);
        for tau in 1..=config.kt.min(t) {
            // Deviation of the lagged observation from each node's base, as
            // a column vector so `prop[i] = Σ_j P_k[i, j] · dev[j]` is one
            // spmm along incoming edges.
            let lagged = &values.data()[(t - tau) * n..(t - tau + 1) * n];
            for ((d, x), node) in dev.data_mut().iter_mut().zip(lagged).zip(&node_base) {
                *d = x - node * base_frac;
            }
            let lag_decay = 0.6f32.powi(tau as i32 - 1);
            for (k_idx, p_k) in powers.iter().enumerate() {
                let order_decay = 0.5f32.powi(k_idx as i32);
                let prop = p_k.matmul(&dev); // [N, 1]
                let scale = gamma_t * lag_decay * order_decay;
                for (d, p) in diffusion_row.iter_mut().zip(prop.data()) {
                    *d += scale * p;
                }
            }
        }

        // --- superpose, apply sensor failures and physical limits ---
        let row = &mut values.data_mut()[t * n..(t + 1) * n];
        for (i, (failed, obs)) in failed_until.iter_mut().zip(row).enumerate() {
            if *failed <= t && rng.gen::<f32>() < config.failure_prob {
                *failed = t + rng.gen_range(3..30);
            }
            let raw = inherent_row[i] + diffusion_row[i];
            *obs = if t < *failed {
                0.0
            } else {
                match config.kind {
                    SignalKind::Speed => raw.clamp(0.0, scale_cap),
                    SignalKind::Flow => raw.round().clamp(0.0, scale_cap),
                }
            };
        }
        if let Some((inherent, diffusion)) = &mut hidden {
            inherent.data_mut()[t * n..(t + 1) * n].copy_from_slice(&inherent_row);
            diffusion.data_mut()[t * n..(t + 1) * n].copy_from_slice(&diffusion_row);
        }
    }
    values
}

/// Smooth daily peak: a periodic Gaussian bump centred at `center` (fraction
/// of a day) with width `width`.
fn gaussian_bump(tod: f32, center: f32, width: f32) -> f32 {
    let mut d = (tod - center).abs();
    if d > 0.5 {
        d = 1.0 - d;
    }
    (-(d * d) / (2.0 * width * width)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg = SimulatorConfig::tiny();
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a.values.data(), b.values.data());
        let mut cfg2 = cfg.clone();
        cfg2.seed = 43;
        let c = simulate(&cfg2);
        assert_ne!(a.values.data(), c.values.data());
    }

    #[test]
    fn shapes_and_indexing() {
        let d = simulate(&SimulatorConfig::tiny());
        assert_eq!(d.num_steps(), 3 * 288);
        assert_eq!(d.num_nodes(), 12);
        assert_eq!(d.time_of_day(290), 2);
        assert_eq!(d.day_of_week(2 * 288 + 5), 2);
    }

    #[test]
    fn raw_window_cuts_values_and_clock() {
        let d = simulate(&SimulatorConfig::tiny());
        let (window, tod, dow) = d.raw_window(286, 4);
        assert_eq!(window.shape(), &[4, 12, 1]);
        assert_eq!(window.data(), &d.values.data()[286 * 12..290 * 12]);
        assert_eq!(tod, [286, 287, 0, 1]);
        assert_eq!(dow, [0, 0, 1, 1]);
    }

    #[test]
    fn speed_values_physically_plausible() {
        let d = simulate(&SimulatorConfig::tiny());
        let vals = d.values.data();
        assert!(vals.iter().all(|v| (0.0..=70.0).contains(v)));
        let mean = d.values.mean_all();
        assert!((30.0..70.0).contains(&mean), "mean speed {mean}");
    }

    #[test]
    fn flow_values_are_rounded_and_bounded() {
        let mut cfg = SimulatorConfig::tiny();
        cfg.kind = SignalKind::Flow;
        let d = simulate(&cfg);
        for v in d.values.data() {
            assert!((0.0..=500.0).contains(v));
            assert_eq!(v.fract(), 0.0, "flow must be integral: {v}");
        }
    }

    #[test]
    fn observed_is_superposition_before_clipping() {
        let mut cfg = SimulatorConfig::tiny();
        cfg.failure_prob = 0.0;
        let d = simulate(&cfg);
        // Away from the clamp boundaries the identity holds exactly.
        let mut checked = 0;
        for t in 0..d.num_steps() {
            for i in 0..d.num_nodes() {
                let raw = d.inherent.at(&[t, i]) + d.diffusion.at(&[t, i]);
                if raw > 1.0 && raw < 69.0 {
                    assert!((d.values.at(&[t, i]) - raw).abs() < 1e-4);
                    checked += 1;
                }
            }
        }
        assert!(checked > 1000, "too few unclipped samples: {checked}");
    }

    #[test]
    fn daily_periodicity_present() {
        // The average day-profile must have meaningful structure: the busiest
        // slot should differ from the quietest by a solid margin.
        let mut cfg = SimulatorConfig::tiny();
        cfg.num_steps = 7 * 288;
        let d = simulate(&cfg);
        let mut profile = vec![0.0f32; 288];
        let mut counts = vec![0usize; 288];
        for t in 0..d.num_steps() {
            if d.day_of_week(t) < 5 {
                profile[d.time_of_day(t)] += d.values.at(&[t, 0]);
                counts[d.time_of_day(t)] += 1;
            }
        }
        for (p, c) in profile.iter_mut().zip(&counts) {
            *p /= (*c).max(1) as f32;
        }
        let max = profile.iter().cloned().fold(f32::MIN, f32::max);
        let min = profile.iter().cloned().fold(f32::MAX, f32::min);
        assert!(max - min > 3.0, "daily swing too small: {}", max - min);
    }

    #[test]
    fn diffusion_component_reflects_graph() {
        // With zero diffusion strength the diffusion component vanishes.
        let mut cfg = SimulatorConfig::tiny();
        cfg.diffusion_strength = 0.0;
        let d = simulate(&cfg);
        assert!(d.diffusion.data().iter().all(|v| *v == 0.0));
        // With positive strength it is non-trivial.
        let d2 = simulate(&SimulatorConfig::tiny());
        let energy: f32 = d2.diffusion.data().iter().map(|v| v.abs()).sum();
        assert!(energy > 1.0);
    }

    #[test]
    fn city_simulation_is_deterministic_and_plausible() {
        let mut cfg = CityConfig::with_nodes(300);
        cfg.num_steps = 96;
        let a = simulate_city(&cfg);
        let b = simulate_city(&cfg);
        assert_eq!(a.values.data(), b.values.data());
        assert_eq!(a.values.shape(), &[96, 300]);
        assert_eq!(a.network.num_nodes(), 300);
        assert!(a.network.has_no_isolated_nodes());
        let vals = a.values.data();
        assert!(vals.iter().all(|v| (0.0..=70.0).contains(v)));
        let mean = a.values.mean_all();
        assert!((30.0..70.0).contains(&mean), "mean speed {mean}");
        let mut cfg2 = cfg.clone();
        cfg2.seed = 43;
        let c = simulate_city(&cfg2);
        assert_ne!(a.values.data(), c.values.data());
    }

    #[test]
    fn city_diffusion_couples_the_graph() {
        // Zero coupling ↔ positive coupling must differ: the sparse
        // propagation actually contributes to the observed signal.
        let mut cfg = CityConfig::with_nodes(200);
        cfg.num_steps = 48;
        cfg.failure_prob = 0.0;
        let coupled = simulate_city(&cfg);
        let mut cfg0 = cfg.clone();
        cfg0.diffusion_strength = 0.0;
        let isolated = simulate_city(&cfg0);
        let delta: f32 = coupled
            .values
            .data()
            .iter()
            .zip(isolated.values.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(delta > 1.0, "diffusion had no effect: {delta}");
    }

    #[test]
    fn city_scales_beyond_dense_reach() {
        // 20k nodes: `simulate`'s dense random geometric network would need
        // a 1.6 GB adjacency; the city network must stay fast and small.
        let mut cfg = CityConfig::with_nodes(20_000);
        cfg.num_steps = 4;
        let d = simulate_city(&cfg);
        assert_eq!(d.values.shape(), &[4, 20_000]);
        assert!(d.network.num_edges() <= 6 * 20_000);
        assert!(d.values.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn failures_produce_zero_stretches() {
        let mut cfg = SimulatorConfig::tiny();
        cfg.failure_prob = 0.01;
        cfg.num_steps = 288;
        let d = simulate(&cfg);
        let zeros = d.values.data().iter().filter(|v| **v == 0.0).count();
        assert!(zeros > 0, "expected some sensor failures");
    }
}
