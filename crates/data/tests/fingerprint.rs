//! Golden fingerprints of the simulator's output bits.
//!
//! Every experiment, checkpoint and benchmark figure in the repository starts
//! from `simulate`/`simulate_city`, so a change to the generator that moves a
//! single bit of its output moves them all. These tests pin the generated
//! arrays, hidden components included, to fixed hashes: a refactor of the
//! simulator must keep them, and a deliberate change to the generative model
//! must update them in the same change.

use d2stgnn_data::{simulate, simulate_city, CityConfig, DatasetId, SignalKind, SimulatorConfig};
use d2stgnn_tensor::Array;

/// 64-bit FNV-1a over each element's little-endian bit pattern, the scheme
/// of `checkpoint::params_checksum`, as 16 hex digits.
fn fingerprint(array: &Array) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in array.data() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// `[values, inherent, diffusion]` fingerprints of one `simulate` run.
fn simulate_fingerprints(config: &SimulatorConfig) -> [String; 3] {
    let data = simulate(config);
    [&data.values, &data.inherent, &data.diffusion].map(fingerprint)
}

#[test]
fn tiny_speed_bits_are_pinned() {
    assert_eq!(
        simulate_fingerprints(&SimulatorConfig::tiny()),
        ["29218d1e9f480404", "94e7dc772809c1e2", "4711f4877f032c80"]
    );
}

#[test]
fn tiny_flow_bits_are_pinned() {
    let mut config = SimulatorConfig::tiny();
    config.kind = SignalKind::Flow;
    assert_eq!(
        simulate_fingerprints(&config),
        ["49b23b700fd0699b", "1a9a0ec80bfa9ee2", "ae244f08950c59b4"]
    );
}

#[test]
fn metr_la_bits_are_pinned() {
    let mut config = DatasetId::MetrLa.full();
    config.num_steps = 1500;
    assert_eq!(
        simulate_fingerprints(&config),
        ["b02615da97d5308e", "723a7600149ef6e3", "faf112374801e066"]
    );
}

#[test]
fn city_bits_are_pinned() {
    let mut config = CityConfig::with_nodes(300);
    config.num_steps = 600;
    assert_eq!(
        fingerprint(&simulate_city(&config).values),
        "337ff979a02e5794"
    );
}
