//! Tape profiler behavior with and without the `obsv` feature.

use d2stgnn_tensor::{Array, Tape, Tensor};

#[cfg(feature = "obsv")]
#[test]
fn profiler_counts_ops_and_tracks_tape_memory() {
    Tape::start_profiling();
    assert!(Tape::is_profiling());

    let loss = {
        let a = Tensor::parameter(Array::from_vec(&[2, 2], vec![1., 2., 3., 4.]).unwrap());
        let b = Tensor::parameter(Array::from_vec(&[2, 2], vec![5., 6., 7., 8.]).unwrap());
        let y = a.matmul(&b).relu().sum_all();
        y.backward();
        let mid = Tape::profile_report();
        // The account counts the buffers still held: the 2 leaves (4 floats
        // each), the matmul output that relu's closure reads (4) and the sum
        // (1) = 13 floats = 52 bytes. No closure reads relu's output, so it
        // was freed with its temporary handle; at the peak, when sum_all was
        // made, it was still held: 17 floats = 68 bytes.
        assert_eq!(mid.live_tape_bytes, 52);
        assert_eq!(mid.peak_tape_bytes, 68);
        assert_eq!(mid.nodes_created, 5);
        y.item()
    };
    assert!(loss.is_finite());
    Tape::stop_profiling();

    let report = Tape::profile_report();
    let calls = |kind: &str| {
        report
            .ops
            .iter()
            .find(|o| o.kind == kind)
            .map_or(0, |o| o.calls)
    };
    assert_eq!(calls("matmul"), 1);
    assert_eq!(calls("relu"), 1);
    assert_eq!(calls("sum_all"), 1);
    assert_eq!(calls("backward"), 1);
    assert!(report.ops.iter().all(|o| o.seconds >= 0.0));
    // The graph dropped with the inner scope: everything discharged.
    assert_eq!(report.live_tape_bytes, 0);
    assert_eq!(report.peak_tape_bytes, 68);

    let table = report.format_table();
    assert!(table.contains("matmul"));
    assert!(table.contains("peak"));

    Tape::reset_profile();
    assert!(Tape::profile_report().ops.is_empty());
}

#[cfg(feature = "obsv")]
#[test]
fn ops_outside_profiling_are_not_counted() {
    Tape::reset_profile();
    assert!(!Tape::is_profiling());
    let a = Tensor::parameter(Array::scalar(2.0));
    let _ = a.square().sum_all();
    let report = Tape::profile_report();
    assert!(report.ops.is_empty());
    assert_eq!(report.nodes_created, 0);
}

#[cfg(not(feature = "obsv"))]
#[test]
fn profiler_api_is_inert_without_the_feature() {
    Tape::start_profiling();
    assert!(!Tape::is_profiling(), "cannot profile without the feature");
    let a = Tensor::parameter(Array::scalar(2.0));
    let y = a.square().sum_all();
    y.backward();
    let report = Tape::profile_report();
    assert!(report.ops.is_empty());
    assert_eq!(report.nodes_created, 0);
    assert_eq!(report.peak_tape_bytes, 0);
    Tape::stop_profiling();
}
