//! Decompositions, alignments and distributions.
//!
//! Fortran D's data-placement model has two levels:
//!
//! 1. `DECOMPOSITION D(100,100)` declares an abstract index domain;
//!    `ALIGN X(i,j) with D(j,i)` maps array elements onto it (possibly
//!    permuted/offset).
//! 2. `DISTRIBUTE D(BLOCK,:)` maps the decomposition onto the machine, one
//!    [`DistKind`] per dimension (`:` marks undistributed dimensions).
//!
//! [`ArrayDist`] is the *effective* distribution of one array — the
//! composition of its alignment with its decomposition's distribution —
//! and provides the owner/local-index arithmetic that data partitioning,
//! the owner-computes rule, communication analysis and the run-time
//! resolution library all share. All global indices are 1-based
//! (Fortran convention); processor ranks are 0-based, matching the paper's
//! `my$p` between `0` and `n$proc-1`.
//!
//! The arithmetic itself — [`DistKind`], [`DimPartition`], [`ProcGrid`],
//! [`ArrayDist`] — is run-time library code and lives in `fortrand-rt`,
//! re-exported here; this module keeps what needs the compiler's own
//! types: building an [`ArrayDist`] from an [`Alignment`] and a
//! [`Distribution`].

use crate::intern::Sym;
pub use fortrand_rt::dist::{ArrayDist, DimPartition, DistKind, ProcGrid};

/// An abstract index domain, `DECOMPOSITION D(e1, …, ek)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Decomposition {
    /// Decomposition name.
    pub name: Sym,
    /// Concrete per-dimension extents.
    pub extents: Vec<i64>,
}

/// `ALIGN X(i,j) with D(j,i)`: array dimension `d` maps to decomposition
/// dimension `perm[d]`, shifted by `offset[d]`.
///
/// The identity alignment maps dimension `d` to dimension `d` with offset 0.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Alignment {
    /// `perm[d]` = decomposition dimension that array dimension `d` aligns to.
    pub perm: Vec<usize>,
    /// `offset[d]` = constant added to the array index to reach the
    /// decomposition index.
    pub offset: Vec<i64>,
}

impl Alignment {
    /// Identity alignment of the given rank.
    pub fn identity(rank: usize) -> Self {
        Alignment {
            perm: (0..rank).collect(),
            offset: vec![0; rank],
        }
    }

    /// The transpose alignment for rank 2 (`ALIGN Y(i,j) with D(j,i)`).
    pub fn transpose2() -> Self {
        Alignment {
            perm: vec![1, 0],
            offset: vec![0, 0],
        }
    }

    /// True if this is the identity.
    pub fn is_identity(&self) -> bool {
        self.offset.iter().all(|&o| o == 0) && self.perm.iter().enumerate().all(|(i, &p)| i == p)
    }
}

/// `DISTRIBUTE D(kind1, …, kindk)` onto `nprocs` processors.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Distribution {
    /// Per-decomposition-dimension mapping.
    pub kinds: Vec<DistKind>,
    /// Total number of processors.
    pub nprocs: usize,
}

impl Distribution {
    /// Source-level spelling, e.g. `(BLOCK,:)`.
    pub fn spelling(&self) -> String {
        let parts: Vec<_> = self.kinds.iter().map(|k| k.spelling()).collect();
        format!("({})", parts.join(","))
    }
}

/// Builds the effective distribution of an array.
///
/// * `array_extents` — declared extents of the array;
/// * `align` — its alignment onto the decomposition;
/// * `decomp_extents` — the decomposition extents;
/// * `dist` — the decomposition's distribution.
pub fn array_dist(
    array_extents: &[i64],
    align: &Alignment,
    decomp_extents: &[i64],
    dist: &Distribution,
) -> ArrayDist {
    let rank = array_extents.len();
    assert_eq!(align.perm.len(), rank, "alignment rank mismatch");
    // Assign grid axes to distributed decomposition dims in order.
    let mut axis_of_ddim = vec![None; dist.kinds.len()];
    let mut next_axis = 0;
    for (d, k) in dist.kinds.iter().enumerate() {
        if k.is_distributed() {
            axis_of_ddim[d] = Some(next_axis);
            next_axis += 1;
        }
    }
    let grid = ProcGrid::new(dist.nprocs, next_axis);
    let mut dims = Vec::with_capacity(rank);
    let mut grid_axis = Vec::with_capacity(rank);
    for (d, &array_extent) in array_extents.iter().enumerate() {
        let ddim = align.perm[d];
        let kind = dist.kinds.get(ddim).copied().unwrap_or(DistKind::Serial);
        let axis = if kind.is_distributed() {
            axis_of_ddim[ddim]
        } else {
            None
        };
        let nprocs = axis.map(|a| grid.shape[a]).unwrap_or(1);
        // Partition over the *decomposition* extent so that aligned
        // arrays (possibly smaller, offset) agree on owners.
        let extent = decomp_extents.get(ddim).copied().unwrap_or(array_extent);
        dims.push(DimPartition {
            kind,
            extent,
            nprocs,
        });
        grid_axis.push(axis);
    }
    ArrayDist {
        dims,
        offsets: align.offset.clone(),
        grid,
        grid_axis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(extent: i64, p: usize) -> DimPartition {
        DimPartition {
            kind: DistKind::Block,
            extent,
            nprocs: p,
        }
    }
    fn cyclic(extent: i64, p: usize) -> DimPartition {
        DimPartition {
            kind: DistKind::Cyclic,
            extent,
            nprocs: p,
        }
    }

    #[test]
    fn block_paper_example() {
        // X(100) BLOCK on 4 procs: local index set [1:25] per proc (§3.1).
        let d = block(100, 4);
        assert_eq!(d.block_size(), 25);
        assert_eq!(d.owner(1), 0);
        assert_eq!(d.owner(25), 0);
        assert_eq!(d.owner(26), 1);
        assert_eq!(d.owner(100), 3);
        assert_eq!(d.local_of_global(26), 1);
        assert_eq!(d.local_of_global(100), 25);
        for q in 0..4 {
            assert_eq!(d.local_count(q), 25);
        }
        assert!((1..=100).all(|g| (d.owner(g) == 1) == (26..=50).contains(&g)));
    }

    #[test]
    fn block_uneven_tail() {
        let d = block(10, 4); // blocks of 3: 3,3,3,1
        assert_eq!(d.block_size(), 3);
        assert_eq!(d.local_count(0), 3);
        assert_eq!(d.local_count(3), 1);
        assert_eq!(d.owner(10), 3);
        assert!((1..=10).all(|g| (d.owner(g) == 3) == (g == 10)));
        assert_eq!(d.local_extent(), 3);
    }

    #[test]
    fn cyclic_roundtrip_and_counts() {
        let d = cyclic(10, 4); // counts 3,3,2,2
        assert_eq!(d.owner(1), 0);
        assert_eq!(d.owner(4), 3);
        assert_eq!(d.owner(5), 0);
        let mut total = 0;
        for q in 0..4 {
            total += d.local_count(q);
        }
        assert_eq!(total, 10);
        for g in 1..=10 {
            let q = d.owner(g);
            let l = d.local_of_global(g);
            assert_eq!(d.global_of_local(q, l), g);
        }
        // Owned set of proc 1 is 2:10:4.
        let owned: Vec<i64> = (1..=10).filter(|&g| d.owner(g) == 1).collect();
        assert_eq!(owned, vec![2, 6, 10]);
    }

    #[test]
    fn array_dist_row_block() {
        // X(100,100) distributed (BLOCK,:) on 4 procs — fig. 4's X.
        let dist = Distribution {
            kinds: vec![DistKind::Block, DistKind::Serial],
            nprocs: 4,
        };
        let ad = array_dist(&[100, 100], &Alignment::identity(2), &[100, 100], &dist);
        assert_eq!(ad.owner_of(&[25, 99]), 0);
        assert_eq!(ad.owner_of(&[26, 1]), 1);
        assert_eq!(ad.local_extents(), vec![25, 100]);
        // Rank 2 owns rows 51:75 of every column, stored from local row 1.
        for i in 1..=100 {
            for j in [1, 100] {
                assert_eq!(ad.owner_of(&[i, j]) == 2, (51..=75).contains(&i));
            }
        }
        assert_eq!((ad.local_idx(0, 51), ad.local_idx(0, 75)), (1, 25));
    }

    #[test]
    fn array_dist_transpose_alignment() {
        // Fig. 4: ALIGN Y(i,j) with X(j,i); DISTRIBUTE X(BLOCK,:).
        // Y's *second* dimension is block-distributed: effective (:,BLOCK).
        let dist = Distribution {
            kinds: vec![DistKind::Block, DistKind::Serial],
            nprocs: 4,
        };
        let ad = array_dist(&[100, 100], &Alignment::transpose2(), &[100, 100], &dist);
        assert_eq!(ad.local_extents(), vec![100, 25]);
        assert_eq!(ad.owner_of(&[1, 25]), 0);
        assert_eq!(ad.owner_of(&[1, 26]), 1);
        // Rank 1 owns columns 26:50 of every row, stored from local column 1.
        for j in 1..=100 {
            for i in [1, 100] {
                assert_eq!(ad.owner_of(&[i, j]) == 1, (26..=50).contains(&j));
            }
        }
        assert_eq!((ad.local_idx(1, 26), ad.local_idx(1, 50)), (1, 25));
    }

    #[test]
    fn alignment_offset_shifts_owner() {
        // ALIGN X(i) with D(i+10), D(110) BLOCK over 11 procs (block 10):
        // X(1) maps to D(11), owned by proc 1.
        let dist = Distribution {
            kinds: vec![DistKind::Block],
            nprocs: 11,
        };
        let al = Alignment {
            perm: vec![0],
            offset: vec![10],
        };
        let ad = array_dist(&[100], &al, &[110], &dist);
        assert_eq!(ad.owner_of(&[1]), 1);
        // Proc 1 owns D[11:20], which is X[1:10] in X's indices.
        for x in 1..=100 {
            assert_eq!(ad.owner_of(&[x]) == 1, x <= 10);
        }
        assert_eq!((ad.local_idx(0, 1), ad.local_idx(0, 10)), (1, 10));
        // Proc 0 owns D[1:10], none of X; proc 10 owns D[101:110] ->
        // X[91:100], stored at 1:10.
        assert!((1..=100).all(|x| ad.owner_of(&[x]) != 0));
        for x in 91..=100 {
            assert_eq!((ad.owner_of(&[x]), ad.local_idx(0, x)), (10, x - 90));
        }
    }

    #[test]
    fn column_cyclic_for_dgefa() {
        // dgefa distributes A(n,n) (:,CYCLIC): column j owned by (j-1) mod P.
        let dist = Distribution {
            kinds: vec![DistKind::Serial, DistKind::Cyclic],
            nprocs: 4,
        };
        let ad = array_dist(&[8, 8], &Alignment::identity(2), &[8, 8], &dist);
        assert_eq!(ad.owner_of(&[3, 1]), 0);
        assert_eq!(ad.owner_of(&[3, 2]), 1);
        assert_eq!(ad.owner_of(&[3, 6]), 1);
        assert_eq!(ad.local_extents(), vec![8, 2]);
        assert_eq!(ad.local_of_global(&[3, 6]), vec![3, 2]);
    }
}
