//! Golden fingerprints of the classical baselines' forecasts.
//!
//! HA, VAR and SVR are the fixed reference rows of Table 3, so their
//! forecasts must not move when the window and scaler plumbing under them
//! is refactored. Each hash is 64-bit FNV-1a over the little-endian f32 bit
//! patterns (`checkpoint::params_checksum`).

use d2stgnn_baselines::{
    evaluate_classical, ClassicalForecaster, HistoricalAverage, LinearSvr, VectorAutoRegression,
};
use d2stgnn_core::checkpoint::params_checksum;
use d2stgnn_data::{simulate, DatasetId, SimulatorConfig, Split, WindowedDataset};
use d2stgnn_tensor::Array;

fn fingerprint(array: &Array) -> String {
    format!("{:016x}", params_checksum(std::slice::from_ref(array)))
}

/// Test-split forecast of a model fitted on `data`'s training segment.
fn test_forecast(mut model: impl ClassicalForecaster, data: &WindowedDataset) -> (Array, Array) {
    model.fit(data);
    let (pred, target, _) = evaluate_classical(&model, data, Split::Test, 0.0);
    (pred, target)
}

/// `[HA, VAR(3), SVR, target, HA slots]` fingerprints on one dataset.
fn classical_fingerprints(data: &WindowedDataset) -> [String; 5] {
    let (ha, target) = test_forecast(HistoricalAverage::new(), data);
    let (var, _) = test_forecast(VectorAutoRegression::new(3, 1.0), data);
    let (svr, _) = test_forecast(LinearSvr::new(), data);
    let mut fitted = HistoricalAverage::new();
    fitted.fit(data);
    let slots = fitted.predict_slots(5, 280, 12);
    [&ha, &var, &svr, &target, &slots].map(fingerprint)
}

#[test]
fn tiny_classical_forecast_bits_are_pinned() {
    let data = WindowedDataset::new(simulate(&SimulatorConfig::tiny()), 12, 12, (0.6, 0.2, 0.2));
    assert_eq!(
        classical_fingerprints(&data),
        [
            "3a2bc6f63a6b2a24",
            "e2a069e2dc009bd4",
            "11b535b8b8f65fc5",
            "e98de15aada2241c",
            "df88479a18011a25"
        ]
    );
}

#[test]
fn metr_la_classical_forecast_bits_are_pinned() {
    let id = DatasetId::MetrLa;
    let data = WindowedDataset::new(simulate(&id.scaled()), 12, 12, id.split_fractions());
    assert_eq!(
        classical_fingerprints(&data),
        [
            "e10e7074d248cc55",
            "1187fbf29918b532",
            "59ac0d2118dfbed0",
            "db71d370856db639",
            "daa3c11009b40b95"
        ]
    );
}
