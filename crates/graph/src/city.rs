//! City-scale road networks with native sparse adjacency.
//!
//! [`crate::TrafficNetwork`] stores a dense `n x n` adjacency, which is fine
//! for the paper's few-hundred-sensor graphs but fatal at the ROADMAP's
//! city-scale north star: 100k nodes would need 40 GB for the adjacency
//! alone, and the all-pairs neighbour search in
//! [`crate::TrafficNetwork::random_geometric`] is O(n² log n).
//! [`SparseNetwork`] never materializes a dense matrix — the adjacency is a
//! [`CsrMatrix`] from birth, and [`SparseNetwork::random_city`] finds each
//! node's nearest neighbours through a uniform spatial grid, so generation
//! is O(n · degree) and a 100k-node network fits in a few megabytes.

use rand::Rng;

use crate::error::GraphError;
use crate::{transition, CsrMatrix, TrafficNetwork};

/// A directed, weighted road network stored sparsely: nodes are sensors,
/// weights come from the same thresholded Gaussian kernel as
/// [`TrafficNetwork`], and each node keeps at most a bounded number of
/// out-edges (real road graphs have degree ≤ ~6 regardless of city size).
#[derive(Clone, Debug)]
pub struct SparseNetwork {
    n: usize,
    /// CSR adjacency, row i = edges out of sensor i.
    adjacency: CsrMatrix,
    /// Sensor coordinates (used by the simulator and visualizations).
    coords: Vec<(f32, f32)>,
}

impl SparseNetwork {
    /// Generate a random city-scale road network: `n` sensors placed
    /// uniformly in the unit square, each connected (with directional
    /// weight jitter, like [`TrafficNetwork::random_geometric`]) to its
    /// `max_degree` nearest neighbours through the Gaussian kernel
    /// `w = exp(-(d/mean_d)²)`, keeping weights ≥ `kappa`. Distances are
    /// normalized by their mean so the kernel's dynamic range is independent
    /// of the node count. Deterministic for a fixed seed.
    ///
    /// The nearest-neighbour search uses a uniform grid (~2 points per
    /// cell) with an expanding ring walk, so the whole construction is
    /// O(n · max_degree) rather than all-pairs.
    ///
    /// # Panics
    /// If `n == 0` or `max_degree == 0` (programming error).
    pub fn random_city<R: Rng>(n: usize, max_degree: usize, kappa: f32, rng: &mut R) -> Self {
        if n == 0 || max_degree == 0 {
            crate::error::violation(format_args!(
                "random_city needs n >= 1 and max_degree >= 1, got n={n} max_degree={max_degree}"
            ));
        }
        let k = max_degree.min(n - 1);
        let coords: Vec<(f32, f32)> = (0..n)
            .map(|_| (rng.gen::<f32>(), rng.gen::<f32>()))
            .collect();

        // Uniform grid over the unit square, ~2 points per cell.
        let cells = ((n as f32 / 2.0).sqrt().ceil().max(1.0)) as usize;
        let cell_of = |v: f32| (((v * cells as f32) as usize).min(cells - 1)) as isize;
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); cells * cells];
        for (i, &(x, y)) in coords.iter().enumerate() {
            buckets[(cell_of(y) * cells as isize + cell_of(x)) as usize].push(i);
        }

        // First pass: pick each node's k nearest neighbours and the jittered
        // directed distance; the kernel scale needs the global mean, so
        // weights are assigned in a second pass.
        let mut edges: Vec<(usize, usize, f32)> = Vec::with_capacity(n * k);
        let mut candidates: Vec<(usize, f32)> = Vec::new();
        for i in 0..n {
            let (xi, yi) = coords[i];
            let (cx, cy) = (cell_of(xi), cell_of(yi));
            candidates.clear();
            let mut ring = 0isize;
            let mut settled_ring: Option<isize> = None;
            loop {
                let mut ring_empty = true;
                for dy in -ring..=ring {
                    for dx in -ring..=ring {
                        // Only the ring's border (inner cells already done).
                        if dx.abs() != ring && dy.abs() != ring {
                            continue;
                        }
                        let (gx, gy) = (cx + dx, cy + dy);
                        if gx < 0 || gy < 0 || gx >= cells as isize || gy >= cells as isize {
                            continue;
                        }
                        ring_empty = false;
                        for &j in &buckets[(gy * cells as isize + gx) as usize] {
                            if j == i {
                                continue;
                            }
                            let ddx = xi - coords[j].0;
                            let ddy = yi - coords[j].1;
                            candidates.push((j, (ddx * ddx + ddy * ddy).sqrt()));
                        }
                    }
                }
                // Once enough candidates exist, walk one extra ring: a
                // nearer point can still hide in the next ring's cells.
                match settled_ring {
                    Some(s) if ring > s => break,
                    Some(_) => {}
                    None if candidates.len() >= k => settled_ring = Some(ring),
                    None => {}
                }
                if ring_empty && ring > cells as isize {
                    break; // Degenerate n: the whole grid has been scanned.
                }
                ring += 1;
            }
            // Deterministic order: by distance, ties broken by index.
            candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            for &(j, d) in candidates.iter().take(k) {
                // Slight directional asymmetry: real road graphs are directed.
                let jitter = 1.0 + 0.1 * rng.gen::<f32>();
                edges.push((i, j, d * jitter));
            }
        }

        // Second pass: normalize by the mean distance, apply the Gaussian
        // kernel, threshold. Each node's nearest out-edge survives
        // regardless of `kappa` (connectivity floor): a geometric outlier
        // must not end up stranded — real road networks have no isolated
        // sensors, and the diffusion model assumes every node participates.
        let mean = edges.iter().map(|(_, _, d)| *d).sum::<f32>() / edges.len().max(1) as f32;
        let scale = mean.max(1e-6);
        let mut has_out = vec![false; n];
        let mut triplets: Vec<(usize, usize, f32)> = Vec::with_capacity(edges.len());
        for &(i, j, d) in &edges {
            let nd = d / scale;
            let w = (-(nd * nd)).exp();
            // Edges were pushed nearest-first, so `!has_out[i]` keeps the
            // closest neighbour when every weight falls under the threshold.
            if w >= kappa || !has_out[i] {
                triplets.push((i, j, w));
                has_out[i] = true;
            }
        }
        let adjacency = crate::error::require(
            CsrMatrix::from_triplets(n, n, &triplets),
            "kernel weights are finite by construction",
        );
        Self {
            n,
            adjacency,
            coords,
        }
    }

    /// Wrap an existing dense network sparsely (small-n interop: lets the
    /// sparse pipeline run on the exact adjacency the dense pipeline uses,
    /// which the equivalence tests rely on).
    pub fn from_network(network: &TrafficNetwork) -> Self {
        let adjacency = crate::error::require(
            CsrMatrix::from_dense(&network.adjacency(), 0.0),
            "TrafficNetwork adjacency is finite by construction",
        );
        Self {
            n: network.num_nodes(),
            adjacency,
            coords: network.coords().to_vec(),
        }
    }

    /// Number of sensors.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges with stored weight.
    pub fn num_edges(&self) -> usize {
        self.adjacency.nnz()
    }

    /// The CSR adjacency.
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adjacency
    }

    /// Sensor coordinates.
    pub fn coords(&self) -> &[(f32, f32)] {
        &self.coords
    }

    /// Forward transition matrix `P_f = D_O⁻¹ A` (row-normalized
    /// adjacency), sparse counterpart of
    /// [`transition::forward_transition`]. Produces bitwise the same
    /// values as the dense path on the same adjacency: both accumulate each
    /// row's weights in column-ascending order, and skipping the dense
    /// zeros cannot change a finite sum.
    pub fn forward_transition(&self) -> CsrMatrix {
        transition::row_normalize_csr(&self.adjacency)
    }

    /// Backward transition matrix `P_b = D_I⁻¹ Aᵀ`, sparse counterpart of
    /// [`transition::backward_transition`].
    pub fn backward_transition(&self) -> CsrMatrix {
        transition::row_normalize_csr(&self.adjacency.transpose())
    }

    /// `true` if every node has at least one in- or out-edge.
    pub fn has_no_isolated_nodes(&self) -> bool {
        let mut touched = vec![false; self.n];
        let row_ptr = self.adjacency.row_ptr();
        for r in 0..self.n {
            if row_ptr[r + 1] > row_ptr[r] {
                touched[r] = true;
            }
        }
        for &c in self.adjacency.col_idx() {
            touched[c] = true;
        }
        touched.iter().all(|&t| t)
    }

    /// Build from a CSR adjacency directly. The matrix must be square and
    /// non-empty ([`GraphError::ShapeMismatch`]) with non-negative weights
    /// ([`GraphError::NegativeWeight`]; [`CsrMatrix`] construction already
    /// guarantees they are finite). `coords` is empty (nodes are placed on
    /// a line) or holds one entry per node. Self-loops are accepted, as in
    /// [`TrafficNetwork::from_adjacency`].
    pub fn from_csr(adjacency: CsrMatrix, coords: Vec<(f32, f32)>) -> Result<Self, GraphError> {
        let (rows, cols) = adjacency.shape();
        if rows != cols || rows == 0 {
            return Err(GraphError::ShapeMismatch {
                op: "sparse_network",
                lhs: vec![rows, cols],
                rhs: vec![rows, rows],
            });
        }
        if adjacency.values().iter().any(|w| *w < 0.0) {
            return Err(GraphError::NegativeWeight("CSR adjacency"));
        }
        let coords = if coords.is_empty() {
            (0..rows).map(|i| (i as f32, 0.0)).collect()
        } else {
            if coords.len() != rows {
                return Err(GraphError::ShapeMismatch {
                    op: "sparse_network coords",
                    lhs: vec![rows],
                    rhs: vec![coords.len()],
                });
            }
            coords
        };
        Ok(Self {
            n: rows,
            adjacency,
            coords,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_city_is_bounded_degree_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = SparseNetwork::random_city(500, 5, 0.05, &mut rng);
        assert_eq!(net.num_nodes(), 500);
        let row_ptr = net.adjacency().row_ptr();
        for r in 0..500 {
            assert!(row_ptr[r + 1] - row_ptr[r] <= 5, "degree bound violated");
        }
        assert!(net.num_edges() >= 500, "edges: {}", net.num_edges());
        assert!(net.has_no_isolated_nodes());
        assert!(net.adjacency().sparsity() > 0.98);
        // Diagonal is never stored.
        for r in 0..500 {
            assert_eq!(net.adjacency().get(r, r), 0.0);
        }
        let mut rng2 = StdRng::seed_from_u64(7);
        let net2 = SparseNetwork::random_city(500, 5, 0.05, &mut rng2);
        assert_eq!(net.adjacency(), net2.adjacency());
    }

    #[test]
    fn random_city_scales_linearly_in_memory() {
        let mut rng = StdRng::seed_from_u64(8);
        let net = SparseNetwork::random_city(20_000, 6, 0.05, &mut rng);
        assert_eq!(net.num_nodes(), 20_000);
        // ≤ degree·n edges, never the dense n².
        assert!(net.num_edges() <= 6 * 20_000);
        assert!(net.has_no_isolated_nodes());
    }

    #[test]
    fn grid_neighbours_match_exhaustive_search() {
        // The grid walk must find the true nearest neighbours, not an
        // approximation: compare edge targets against a brute-force scan.
        let mut rng = StdRng::seed_from_u64(9);
        let net = SparseNetwork::random_city(120, 4, 0.0, &mut rng);
        // Re-derive the coordinates the generator used.
        let coords = net.coords().to_vec();
        for i in 0..120 {
            let mut order: Vec<(usize, f32)> = (0..120)
                .filter(|&j| j != i)
                .map(|j| {
                    let dx = coords[i].0 - coords[j].0;
                    let dy = coords[i].1 - coords[j].1;
                    (j, (dx * dx + dy * dy).sqrt())
                })
                .collect();
            order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let expect: std::collections::BTreeSet<usize> =
                order.iter().take(4).map(|&(j, _)| j).collect();
            let adj = net.adjacency();
            let got: std::collections::BTreeSet<usize> = adj.col_idx()
                [adj.row_ptr()[i]..adj.row_ptr()[i + 1]]
                .iter()
                .copied()
                .collect();
            assert_eq!(got, expect, "node {i} picked the wrong neighbours");
        }
    }

    #[test]
    fn from_network_preserves_transitions_bitwise() {
        let mut rng = StdRng::seed_from_u64(10);
        let dense_net = TrafficNetwork::random_geometric(40, 4, 0.05, &mut rng);
        let sparse_net = SparseNetwork::from_network(&dense_net);
        assert_eq!(sparse_net.num_nodes(), 40);
        assert_eq!(sparse_net.num_edges(), dense_net.num_edges());

        let p_f_dense = transition::forward_transition(&dense_net.adjacency());
        let p_b_dense = transition::backward_transition(&dense_net.adjacency());
        assert_eq!(
            sparse_net.forward_transition().to_dense().data(),
            p_f_dense.data(),
            "sparse forward transition must match the dense path bit-for-bit"
        );
        assert_eq!(
            sparse_net.backward_transition().to_dense().data(),
            p_b_dense.data(),
            "sparse backward transition must match the dense path bit-for-bit"
        );
    }

    #[test]
    fn from_csr_validates() {
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 1, 1.0)]).unwrap();
        assert!(SparseNetwork::from_csr(rect, vec![]).is_err());
        let neg = CsrMatrix::from_triplets(2, 2, &[(0, 1, -1.0)]).unwrap();
        let err = SparseNetwork::from_csr(neg, vec![]).unwrap_err();
        assert_eq!(err, GraphError::NegativeWeight("CSR adjacency"));
        assert_eq!(err.to_string(), "CSR adjacency has negative weights");
        let ok = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 0.5)]).unwrap();
        let net = SparseNetwork::from_csr(ok, vec![]).unwrap();
        assert_eq!(net.num_nodes(), 2);
        assert_eq!(net.coords().len(), 2);
    }
}
