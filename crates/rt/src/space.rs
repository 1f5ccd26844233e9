//! The section odometer. Message payloads and global input/output buffers
//! are row-major (rightmost subscript fastest) on every back end; how a
//! rank lays out its *local* storage is the back end's own business.

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
}
