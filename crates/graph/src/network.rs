//! Traffic networks (Definition 2): sensors as nodes, reachability encoded
//! in a weighted adjacency matrix built from road-network distances with a
//! thresholded Gaussian kernel, following the DCRNN procedure the paper uses.

use d2stgnn_tensor::Array;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A directed, weighted traffic network over `n` sensors.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrafficNetwork {
    n: usize,
    /// Dense adjacency weights, row i = edges out of sensor i. Stored flat
    /// row-major to stay serde-friendly.
    adjacency: Vec<f32>,
    /// Sensor coordinates (used by the simulator and visualizations).
    coords: Vec<(f32, f32)>,
}

impl TrafficNetwork {
    /// Build from a dense adjacency matrix (`n x n`, row-major).
    ///
    /// # Panics
    /// If `adjacency.len() != n * n` or any weight is negative/non-finite.
    pub fn from_adjacency(n: usize, adjacency: Vec<f32>, coords: Vec<(f32, f32)>) -> Self {
        assert_eq!(adjacency.len(), n * n, "adjacency must be n x n");
        assert!(
            adjacency.iter().all(|w| w.is_finite() && *w >= 0.0),
            "adjacency weights must be finite and non-negative"
        );
        let coords = if coords.is_empty() {
            (0..n).map(|i| (i as f32, 0.0)).collect()
        } else {
            assert_eq!(coords.len(), n, "coords must have one entry per sensor");
            coords
        };
        Self {
            n,
            adjacency,
            coords,
        }
    }

    /// Build from pairwise distances with a thresholded Gaussian kernel:
    /// `w_ij = exp(-d_ij^2 / sigma^2)` kept when `w_ij >= kappa`, diagonal
    /// zeroed. `sigma` defaults to the standard deviation of the distances
    /// when `None` (the DCRNN convention).
    pub fn from_distances(
        n: usize,
        distances: &[f32],
        sigma: Option<f32>,
        kappa: f32,
        coords: Vec<(f32, f32)>,
    ) -> Self {
        assert_eq!(distances.len(), n * n, "distances must be n x n");
        let sigma = sigma.unwrap_or_else(|| {
            let finite: Vec<f32> = distances
                .iter()
                .copied()
                .filter(|d| d.is_finite())
                .collect();
            let mean = finite.iter().sum::<f32>() / finite.len().max(1) as f32;
            let var = finite.iter().map(|d| (d - mean) * (d - mean)).sum::<f32>()
                / finite.len().max(1) as f32;
            var.sqrt().max(1e-6)
        });
        let mut adjacency = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let d = distances[i * n + j];
                if !d.is_finite() {
                    continue;
                }
                let w = (-(d * d) / (sigma * sigma)).exp();
                if w >= kappa {
                    adjacency[i * n + j] = w;
                }
            }
        }
        Self::from_adjacency(n, adjacency, coords)
    }

    /// Generate a random geometric network: `n` sensors placed uniformly in
    /// the unit square, each connected (bidirectionally, with independent
    /// weights) to its `k` nearest neighbours through the Gaussian kernel.
    /// Used by the synthetic datasets standing in for the paper's road maps.
    pub fn random_geometric<R: Rng>(n: usize, k: usize, kappa: f32, rng: &mut R) -> Self {
        assert!(n > 0, "need at least one sensor");
        let k = k.min(n.saturating_sub(1));
        let coords: Vec<(f32, f32)> = (0..n)
            .map(|_| (rng.gen::<f32>(), rng.gen::<f32>()))
            .collect();
        let mut distances = vec![f32::INFINITY; n * n];
        for i in 0..n {
            let mut order: Vec<(usize, f32)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| {
                    let dx = coords[i].0 - coords[j].0;
                    let dy = coords[i].1 - coords[j].1;
                    (j, (dx * dx + dy * dy).sqrt())
                })
                .collect();
            order.sort_by(|a, b| a.1.total_cmp(&b.1));
            for &(j, d) in order.iter().take(k) {
                // Slight directional asymmetry: real road graphs are directed.
                let jitter = 1.0 + 0.1 * rng.gen::<f32>();
                distances[i * n + j] = d * jitter;
            }
        }
        // Scale distances so the Gaussian kernel has useful dynamic range.
        let scale = {
            let finite: Vec<f32> = distances
                .iter()
                .copied()
                .filter(|d| d.is_finite())
                .collect();
            let mean = finite.iter().sum::<f32>() / finite.len().max(1) as f32;
            mean.max(1e-6)
        };
        let normalized: Vec<f32> = distances.iter().map(|d| d / scale).collect();
        Self::from_distances(n, &normalized, Some(1.0), kappa, coords)
    }

    /// Number of sensors.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges with non-zero weight.
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().filter(|w| **w > 0.0).count()
    }

    /// Edge weight from `i` to `j`.
    pub fn weight(&self, i: usize, j: usize) -> f32 {
        self.adjacency[i * self.n + j]
    }

    /// Sensor coordinates.
    pub fn coords(&self) -> &[(f32, f32)] {
        &self.coords
    }

    /// Dense adjacency as an `[n, n]` array.
    pub fn adjacency(&self) -> Array {
        crate::error::require(
            Array::from_vec(&[self.n, self.n], self.adjacency.clone()),
            "adjacency length is validated at construction",
        )
    }

    /// Out-neighbours of node `i` (indices with non-zero weight).
    pub fn out_neighbors(&self, i: usize) -> Vec<usize> {
        (0..self.n).filter(|&j| self.weight(i, j) > 0.0).collect()
    }

    /// `true` if every node can reach at least one other node.
    pub fn has_no_isolated_nodes(&self) -> bool {
        (0..self.n).all(|i| {
            let out = (0..self.n).any(|j| self.weight(i, j) > 0.0);
            let inc = (0..self.n).any(|j| self.weight(j, i) > 0.0);
            out || inc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_adjacency_validates() {
        let net = TrafficNetwork::from_adjacency(2, vec![0., 1., 2., 0.], vec![]);
        assert_eq!(net.num_nodes(), 2);
        assert_eq!(net.num_edges(), 2);
        assert_eq!(net.weight(0, 1), 1.0);
        assert_eq!(net.weight(1, 0), 2.0);
        assert_eq!(net.out_neighbors(0), vec![1]);
    }

    #[test]
    #[should_panic(expected = "n x n")]
    fn from_adjacency_rejects_bad_len() {
        TrafficNetwork::from_adjacency(2, vec![0.0; 3], vec![]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_adjacency_rejects_negative() {
        TrafficNetwork::from_adjacency(1, vec![-1.0], vec![]);
    }

    #[test]
    fn gaussian_kernel_thresholds_and_zero_diagonal() {
        // 3 nodes on a line at 0, 1, 10.
        let pos = [0.0f32, 1.0, 10.0];
        let mut d = vec![0.0f32; 9];
        for i in 0..3 {
            for j in 0..3 {
                d[i * 3 + j] = (pos[i] - pos[j]).abs();
            }
        }
        let net = TrafficNetwork::from_distances(3, &d, Some(1.0), 0.1, vec![]);
        // Near pair connected both ways; far pair pruned; diagonal zero.
        assert!(net.weight(0, 1) > 0.3);
        assert!(net.weight(1, 0) > 0.3);
        assert_eq!(net.weight(0, 2), 0.0);
        for i in 0..3 {
            assert_eq!(net.weight(i, i), 0.0);
        }
        // Closer distance => larger weight.
        assert!(net.weight(0, 1) > net.weight(1, 2).max(0.0));
    }

    #[test]
    fn random_geometric_is_connected_enough() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = TrafficNetwork::random_geometric(30, 4, 0.05, &mut rng);
        assert_eq!(net.num_nodes(), 30);
        assert!(net.num_edges() >= 30, "edges: {}", net.num_edges());
        assert!(net.has_no_isolated_nodes());
        // Deterministic for a fixed seed.
        let mut rng2 = StdRng::seed_from_u64(11);
        let net2 = TrafficNetwork::random_geometric(30, 4, 0.05, &mut rng2);
        assert_eq!(net.adjacency().data(), net2.adjacency().data());
    }

    #[test]
    fn full_profile_adjacency_is_very_sparse() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = TrafficNetwork::random_geometric(207, 9, 0.05, &mut rng);
        let s = crate::CsrMatrix::from_dense(&net.adjacency(), 0.0).unwrap();
        assert!(s.sparsity() > 0.9, "sparsity {}", s.sparsity());
        // spmm against the dense path on the real structure.
        let x = Array::randn(&[207, 4], &mut rng);
        let got = s.matmul(&x);
        let expect = net.adjacency().matmul(&x);
        for (a, b) in got.data().iter().zip(expect.data()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = TrafficNetwork::random_geometric(10, 3, 0.05, &mut rng);
        let json = serde_json::to_string(&net).unwrap();
        let back: TrafficNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_nodes(), 10);
        assert_eq!(back.adjacency().data(), net.adjacency().data());
    }
}
