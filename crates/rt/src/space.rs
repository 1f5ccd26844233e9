//! The section odometer. Message payloads and global input/output buffers
//! are row-major (rightmost subscript fastest) on every back end; how a
//! rank lays out its *local* storage is the back end's own business.

/// Fortran's maximum rank: the odometer keeps a point of at most this
/// many subscripts on the stack.
const MAX_RANK: usize = 7;

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
/// unpacked from a message. Allocates only above [`MAX_RANK`].
#[inline]
pub fn rect_for_each(dims: &[(i64, i64, i64)], mut f: impl FnMut(&[i64])) {
    if dims.iter().any(|&(lo, hi, _)| hi < lo) {
        return;
    }
    let (mut stack, mut heap) = ([0i64; MAX_RANK], Vec::new());
    let pt = match stack.get_mut(..dims.len()) {
        Some(pt) => pt,
        None => {
            heap.resize(dims.len(), 0);
            &mut heap[..]
        }
    };
    for (x, &(lo, _, _)) in pt.iter_mut().zip(dims) {
        *x = lo;
    }
    loop {
        f(pt);
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

    /// The points of `dims` after `prefix`, by one nested loop per
    /// dimension, first dimension outermost.
    fn nested(dims: &[(i64, i64, i64)], prefix: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
        let Some((&(lo, hi, step), rest)) = dims.split_first() else {
            out.push(prefix.clone());
            return;
        };
        let mut x = lo;
        while x <= hi {
            prefix.push(x);
            nested(rest, prefix, out);
            prefix.pop();
            x += step;
        }
    }

    /// Ranks 0 to 9 — the stack point and the `Vec` fallback above
    /// [`MAX_RANK`] — with steps of 1 to 3, ragged upper bounds, and each
    /// dimension in turn made empty.
    #[test]
    fn rect_for_each_matches_nested_loops() {
        let check = |dims: &[(i64, i64, i64)]| {
            let mut got = Vec::new();
            rect_for_each(dims, |p| got.push(p.to_vec()));
            let mut want = Vec::new();
            nested(dims, &mut Vec::new(), &mut want);
            assert_eq!(got, want, "{dims:?}");
            assert_eq!(rect_len(dims), want.len(), "{dims:?}");
        };
        for rank in 0..=9usize {
            let dims: Vec<(i64, i64, i64)> = (0..rank as i64)
                .map(|d| {
                    let step = d % 3 + 1;
                    (d - 2, d - 2 + step * (d % 2 + 1) + d % 2, step)
                })
                .collect();
            check(&dims);
            for empty in 0..rank {
                let mut dims = dims.clone();
                dims[empty].1 = dims[empty].0 - 1;
                check(&dims);
            }
        }
    }
}
