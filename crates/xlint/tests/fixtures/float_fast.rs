//! Float-determinism fixture for kernel code: an unordered reduction over a
//! HashMap and every `mul_add` must be flagged, including one behind a
//! `D2_FAST_MATH` check (no flag exempts fused rounding).

use std::collections::HashMap;

pub fn unordered(weights: &HashMap<u32, f32>) -> f32 {
    let total: f32 = weights.values().sum();
    total
}

pub fn fused(a: f32, b: f32, c: f32) -> f32 {
    a.mul_add(b, c)
}

pub fn gated(a: f32, b: f32, c: f32) -> f32 {
    if *crate::D2_FAST_MATH {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}
