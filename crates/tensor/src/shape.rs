//! Shape arithmetic: strides, broadcasting, axis normalization.

use crate::error::TensorError;

/// Row-major (C-order) strides for `shape`, in elements.
pub fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0; shape.len()];
    let mut acc = 1usize;
    for (i, &dim) in shape.iter().enumerate().rev() {
        strides[i] = acc;
        acc *= dim;
    }
    strides
}

/// Total number of elements implied by `shape`.
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// NumPy-style broadcast of two shapes.
///
/// Dimensions are aligned from the right; each pair must be equal or one of
/// them must be 1, and the result takes the other one (so 1 against 0 is 0).
/// Returns the broadcast result shape.
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Result<Vec<usize>, TensorError> {
    let rank = a.len().max(b.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let da = if i < rank - a.len() {
            1
        } else {
            a[i - (rank - a.len())]
        };
        let db = if i < rank - b.len() {
            1
        } else {
            b[i - (rank - b.len())]
        };
        if da == db || da == 1 || db == 1 {
            out[i] = if da == 1 { db } else { da };
        } else {
            return Err(TensorError::ShapeMismatch {
                op: "broadcast",
                lhs: a.to_vec(),
                rhs: b.to_vec(),
            });
        }
    }
    Ok(out)
}

/// Strides to iterate an array of `shape` as though it had `target` shape,
/// placing stride 0 on broadcast dimensions. `shape` must broadcast to `target`.
pub fn broadcast_strides(shape: &[usize], target: &[usize]) -> Vec<usize> {
    debug_assert!(shape.len() <= target.len());
    let base = strides_for(shape);
    let offset = target.len() - shape.len();
    let mut out = vec![0usize; target.len()];
    for i in 0..shape.len() {
        out[offset + i] = if shape[i] == 1 { 0 } else { base[i] };
    }
    out
}

/// Validate that `axis < rank`.
pub fn check_axis(axis: usize, rank: usize) -> Result<(), TensorError> {
    if axis < rank {
        Ok(())
    } else {
        Err(TensorError::AxisOutOfRange { axis, rank })
    }
}

/// Given a broadcast output shape and an original input shape, list the output
/// axes along which the input was replicated (used to sum gradients back).
///
/// Returns `(leading, repeated)`: `leading` is the number of output axes that
/// do not exist in the input at all; `repeated` lists output-axis indices
/// where the input dimension is 1 but the output dimension is larger.
pub fn reduction_axes(input: &[usize], output: &[usize]) -> (usize, Vec<usize>) {
    let leading = output.len() - input.len();
    let mut repeated = Vec::new();
    for (i, &d) in input.iter().enumerate() {
        if d == 1 && output[leading + i] != 1 {
            repeated.push(leading + i);
        }
    }
    (leading, repeated)
}

/// Decompose a flat row-major index into multi-dimensional coordinates.
pub fn unravel(mut idx: usize, shape: &[usize]) -> Vec<usize> {
    let mut coords = vec![0usize; shape.len()];
    for i in (0..shape.len()).rev() {
        if shape[i] > 0 {
            coords[i] = idx % shape[i];
            idx /= shape[i];
        }
    }
    coords
}

/// Flatten multi-dimensional coordinates under the provided strides.
pub fn ravel(coords: &[usize], strides: &[usize]) -> usize {
    coords.iter().zip(strides).map(|(c, s)| c * s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[3], &[2, 3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[1], &[4, 5, 6]).unwrap(), vec![4, 5, 6]);
        assert!(broadcast_shapes(&[2, 3], &[2, 4]).is_err());
        // A unit axis stretches to an empty one, as in NumPy.
        assert_eq!(broadcast_shapes(&[1, 3], &[0, 1]).unwrap(), vec![0, 3]);
        assert_eq!(broadcast_shapes(&[0], &[2, 1]).unwrap(), vec![2, 0]);
    }

    #[test]
    fn broadcast_strides_zeroed() {
        // [3] viewed as [2,3]: stride 0 on the leading axis.
        assert_eq!(broadcast_strides(&[3], &[2, 3]), vec![0, 1]);
        // [2,1] viewed as [2,3]: stride 0 on the trailing axis.
        assert_eq!(broadcast_strides(&[2, 1], &[2, 3]), vec![1, 0]);
    }

    #[test]
    fn reduction_axes_identified() {
        let (lead, rep) = reduction_axes(&[3], &[2, 3]);
        assert_eq!(lead, 1);
        assert!(rep.is_empty());
        let (lead, rep) = reduction_axes(&[2, 1], &[2, 3]);
        assert_eq!(lead, 0);
        assert_eq!(rep, vec![1]);
    }

    #[test]
    fn ravel_unravel_roundtrip() {
        let shape = [2, 3, 4];
        let strides = strides_for(&shape);
        for idx in 0..numel(&shape) {
            let coords = unravel(idx, &shape);
            assert_eq!(ravel(&coords, &strides), idx);
        }
    }

    #[test]
    fn axis_check() {
        assert!(check_axis(1, 2).is_ok());
        assert!(check_axis(2, 2).is_err());
    }
}
