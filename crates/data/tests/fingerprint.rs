//! Golden fingerprints of the simulator's and the window batcher's output
//! bits.
//!
//! Every experiment, checkpoint and benchmark figure in the repository starts
//! from `simulate`/`simulate_city`, so a change to the generator that moves a
//! single bit of its output moves them all. These tests pin the generated
//! arrays, hidden components included, to fixed hashes: a refactor of the
//! simulator must keep them, and a deliberate change to the generative model
//! must update them in the same change. The batch fingerprints do the same
//! for the normalized windows every model trains and is scored on.

use d2stgnn_data::{
    simulate, simulate_city, CityConfig, DatasetId, SignalKind, SimulatorConfig, Split,
    WindowedDataset,
};
use d2stgnn_tensor::Array;

/// 64-bit FNV-1a over a byte stream, as 16 hex digits.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// FNV-1a over each element's little-endian bit pattern, the scheme of
/// `checkpoint::params_checksum`.
fn fingerprint(array: &Array) -> String {
    fnv1a(array.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// FNV-1a over a clock vector, one little-endian `u64` per entry.
fn clock_fingerprint(clock: &[usize]) -> String {
    fnv1a(clock.iter().flat_map(|&c| (c as u64).to_le_bytes()))
}

/// `[x, y, tod, dow]` fingerprints of one batch.
fn batch_fingerprints(data: &WindowedDataset, split: Split, indices: &[usize]) -> [String; 4] {
    let batch = data.batch(split, indices);
    [
        fingerprint(&batch.x),
        fingerprint(&batch.y),
        clock_fingerprint(&batch.tod),
        clock_fingerprint(&batch.dow),
    ]
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

#[test]
fn tiny_train_batch_bits_are_pinned() {
    let data = WindowedDataset::new(simulate(&SimulatorConfig::tiny()), 12, 12, (0.6, 0.2, 0.2));
    assert_eq!(
        batch_fingerprints(&data, Split::Train, &[0, 3, 5, 7]),
        [
            "dd791cd59e4b3c2a",
            "f428df6bb2f04311",
            "54837e93eb0aaea9",
            "c86ec345c0ee8125"
        ]
    );
}

#[test]
fn metr_la_val_batch_bits_are_pinned() {
    let id = DatasetId::MetrLa;
    let data = WindowedDataset::new(simulate(&id.scaled()), 12, 12, id.split_fractions());
    let [x, y, ..] = batch_fingerprints(&data, Split::Val, &[0, 1, 2, 3]);
    assert_eq!([x, y], ["0dccdeca4ad4311e", "38b0cb6da9c5a6e4"]);
}
