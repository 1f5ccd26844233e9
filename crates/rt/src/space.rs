//! Row-major index spaces and the section odometer. Message payloads and
//! global input/output buffers are row-major (rightmost subscript
//! fastest) on every back end; how a rank lays out its *local* storage is
//! the back end's own business.

/// Row-major index space over `extents` with strides precomputed once, so
/// decoding a flat index is O(d) multiplies instead of O(d²) products.
pub struct RowMajor {
    pub extents: Vec<i64>,
    strides: Vec<i64>,
    pub total: i64,
}

impl RowMajor {
    pub fn new(extents: Vec<i64>) -> Self {
        let n = extents.len();
        let mut strides = vec![1i64; n];
        for d in (0..n.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * extents[d + 1];
        }
        let total = extents.iter().product();
        RowMajor {
            extents,
            strides,
            total,
        }
    }

    /// Decodes `flat` into 1-based point coordinates.
    #[inline]
    pub fn decode_into(&self, flat: i64, pt: &mut [i64]) {
        let mut rem = flat;
        for (p, stride) in pt.iter_mut().zip(&self.strides) {
            *p = rem / stride + 1;
            rem %= stride;
        }
    }

    /// Encodes 1-based point coordinates into a flat index.
    #[inline]
    pub fn encode(&self, pt: &[i64]) -> i64 {
        pt.iter()
            .zip(&self.strides)
            .map(|(&x, &s)| (x - 1) * s)
            .sum()
    }
}

/// Number of points in a rect section (`(lo, hi, step)` per dimension);
/// empty if any `hi < lo`.
pub fn rect_len(dims: &[(i64, i64, i64)]) -> usize {
    if dims.iter().any(|&(lo, hi, _)| hi < lo) {
        return 0;
    }
    dims.iter()
        .map(|&(lo, hi, step)| ((hi - lo) / step + 1) as usize)
        .product()
}

/// Visits a rect's points in row-major order (rightmost dimension
/// fastest): the order in which a section's elements are packed into and
/// unpacked from a message.
#[inline]
pub fn rect_for_each(dims: &[(i64, i64, i64)], mut f: impl FnMut(&[i64])) {
    if dims.iter().any(|&(lo, hi, _)| hi < lo) {
        return;
    }
    let mut pt: Vec<i64> = dims.iter().map(|&(lo, _, _)| lo).collect();
    loop {
        f(&pt);
        let mut d = dims.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            pt[d] += dims[d].2;
            if pt[d] <= dims[d].1 {
                break;
            }
            pt[d] = dims[d].0;
        }
    }
}

/// Whether `subs` lies inside the per-dimension `(lo, hi)` bounds of a
/// local store.
#[inline]
pub fn in_bounds(subs: &[i64], bounds: &[(i64, i64)]) -> bool {
    subs.iter()
        .zip(bounds)
        .all(|(&x, &(lo, hi))| x >= lo && x <= hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_enumeration_is_row_major_rightmost_fastest() {
        let mut pts = Vec::new();
        rect_for_each(&[(1, 2, 1), (5, 9, 2)], |p| pts.push(p.to_vec()));
        assert_eq!(
            pts,
            vec![
                vec![1, 5],
                vec![1, 7],
                vec![1, 9],
                vec![2, 5],
                vec![2, 7],
                vec![2, 9]
            ]
        );
        assert_eq!(rect_len(&[(1, 2, 1), (5, 9, 2)]), 6);
        assert_eq!(rect_len(&[(3, 2, 1)]), 0);
    }

    #[test]
    fn decode_inverts_encode() {
        let s = RowMajor::new(vec![3, 4, 5]);
        let mut pt = [0; 3];
        for flat in 0..s.total {
            s.decode_into(flat, &mut pt);
            assert_eq!(s.encode(&pt), flat);
        }
        assert_eq!(pt, [3, 4, 5]);
    }
}
