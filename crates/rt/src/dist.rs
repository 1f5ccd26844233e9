//! Owner/local-index arithmetic of an array's effective distribution.
//!
//! [`ArrayDist`] is what data partitioning, the owner-computes rule,
//! communication analysis and the run-time library all share: which rank
//! owns a global point, and where the point sits in that rank's local
//! storage. The compiler builds these values from `ALIGN`/`DISTRIBUTE`
//! (`fortrand_ir::dist::array_dist`); a native node program carries them
//! as literals. All global indices are 1-based (Fortran convention);
//! processor ranks are 0-based, matching the paper's `my$p` between `0`
//! and `n$proc-1`.

/// How one decomposition dimension is mapped to processors.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum DistKind {
    /// Contiguous blocks of size ⌈N/P⌉.
    Block,
    /// Round-robin single elements.
    Cyclic,
    /// Round-robin blocks of the given size.
    BlockCyclic(i64),
    /// Not distributed (the `:` marker); every processor holds the whole
    /// extent of this dimension.
    Serial,
}

impl DistKind {
    /// True for `BLOCK`, `CYCLIC` and `BLOCK_CYCLIC`.
    pub fn is_distributed(self) -> bool {
        !matches!(self, DistKind::Serial)
    }

    /// Source-level spelling.
    pub fn spelling(self) -> String {
        match self {
            DistKind::Block => "BLOCK".into(),
            DistKind::Cyclic => "CYCLIC".into(),
            DistKind::BlockCyclic(k) => format!("BLOCK_CYCLIC({k})"),
            DistKind::Serial => ":".into(),
        }
    }
}

/// The processor arrangement over the distributed dimensions.
///
/// With one distributed dimension the grid is simply `[P]`; with two it is a
/// near-square factorization of `P`, and so on. Rank 0 holds grid
/// coordinate (0,…,0); linearization is row-major over grid axes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ProcGrid {
    /// Processors along each grid axis; the product is the total count.
    pub shape: Vec<usize>,
}

impl ProcGrid {
    /// Factorizes `nprocs` over `naxes` axes, as squarely as possible while
    /// keeping earlier axes at least as large as later ones.
    pub fn new(nprocs: usize, naxes: usize) -> Self {
        assert!(nprocs >= 1);
        if naxes == 0 {
            return ProcGrid { shape: vec![] };
        }
        let mut shape = vec![1usize; naxes];
        let mut rem = nprocs;
        for (axis, slot) in shape.iter_mut().enumerate() {
            let axes_left = naxes - axis;
            // Largest divisor of rem that is ≤ ceil(rem^(1/axes_left)).
            let target = (rem as f64).powf(1.0 / axes_left as f64).round() as usize;
            let mut best = 1;
            for d in 1..=rem {
                if rem.is_multiple_of(d) && d <= target.max(1) {
                    best = d;
                }
            }
            // Put the larger factor first.
            let d = rem / best;
            *slot = d.max(best);
            rem /= *slot;
        }
        // Distribute any remainder (only if factorization failed) onto axis 0.
        shape[0] *= rem.max(1);
        ProcGrid { shape }
    }

    /// Total number of processors.
    pub fn nprocs(&self) -> usize {
        self.shape.iter().product::<usize>().max(1)
    }

    /// Row-major linear rank of grid coordinates.
    #[inline]
    pub fn rank_of(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.shape.len());
        let mut r = 0;
        for (c, s) in coords.iter().zip(&self.shape) {
            debug_assert!(c < s);
            r = r * s + c;
        }
        r
    }

    /// Grid coordinates of a linear rank.
    pub fn coords_of(&self, mut rank: usize) -> Vec<usize> {
        let mut out = vec![0; self.shape.len()];
        for axis in (0..self.shape.len()).rev() {
            out[axis] = rank % self.shape[axis];
            rank /= self.shape[axis];
        }
        out
    }
}

/// One array dimension's share of a distribution.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DimPartition {
    /// Mapping kind.
    pub kind: DistKind,
    /// Global extent of this dimension (after alignment offset).
    pub extent: i64,
    /// Processors along the grid axis this dimension maps to (1 if serial).
    pub nprocs: usize,
}

impl DimPartition {
    /// Block size ⌈N/P⌉ for `Block`; the parameter for `BlockCyclic`; 1 for
    /// `Cyclic`; the whole extent for `Serial`.
    #[inline]
    pub fn block_size(&self) -> i64 {
        match self.kind {
            DistKind::Block => (self.extent + self.nprocs as i64 - 1) / self.nprocs as i64,
            DistKind::Cyclic => 1,
            DistKind::BlockCyclic(k) => k,
            DistKind::Serial => self.extent,
        }
    }

    /// Owner coordinate (along this grid axis) of global index `g` (1-based).
    #[inline]
    pub fn owner(&self, g: i64) -> usize {
        debug_assert!(
            g >= 1 && g <= self.extent,
            "index {g} out of [1,{}]",
            self.extent
        );
        let p = self.nprocs as i64;
        match self.kind {
            DistKind::Serial => 0,
            DistKind::Block => ((g - 1) / self.block_size()).min(p - 1) as usize,
            DistKind::Cyclic => ((g - 1) % p) as usize,
            DistKind::BlockCyclic(k) => (((g - 1) / k) % p) as usize,
        }
    }

    /// Local (1-based) index of global `g` on its owner.
    #[inline]
    pub fn local_of_global(&self, g: i64) -> i64 {
        let p = self.nprocs as i64;
        match self.kind {
            DistKind::Serial => g,
            DistKind::Block => g - self.owner(g) as i64 * self.block_size(),
            DistKind::Cyclic => (g - 1) / p + 1,
            DistKind::BlockCyclic(k) => {
                let blk = (g - 1) / k; // global block number
                let local_blk = blk / p; // block number on the owner
                local_blk * k + (g - 1) % k + 1
            }
        }
    }

    /// Global index of local index `l` (1-based) on processor coordinate `q`.
    pub fn global_of_local(&self, q: usize, l: i64) -> i64 {
        let p = self.nprocs as i64;
        let q = q as i64;
        match self.kind {
            DistKind::Serial => l,
            DistKind::Block => q * self.block_size() + l,
            DistKind::Cyclic => (l - 1) * p + q + 1,
            DistKind::BlockCyclic(k) => {
                let local_blk = (l - 1) / k;
                (local_blk * p + q) * k + (l - 1) % k + 1
            }
        }
    }

    /// Number of elements owned by processor coordinate `q`.
    pub fn local_count(&self, q: usize) -> i64 {
        let p = self.nprocs as i64;
        let q = q as i64;
        match self.kind {
            DistKind::Serial => self.extent,
            DistKind::Block => {
                let b = self.block_size();
                (self.extent - q * b).clamp(0, b)
            }
            DistKind::Cyclic => (self.extent + p - 1 - q) / p,
            DistKind::BlockCyclic(k) => {
                // Count l with global_of_local(q,l) ≤ extent.
                let full_cycles = self.extent / (k * p);
                let rem = self.extent - full_cycles * k * p;
                let mine = (rem - q * k).clamp(0, k);
                full_cycles * k + mine
            }
        }
    }

    /// Maximum local count over all processors (the local declared extent).
    pub fn local_extent(&self) -> i64 {
        (0..self.nprocs)
            .map(|q| self.local_count(q))
            .max()
            .unwrap_or(0)
    }

    /// The global indices coordinate `q` owns, ascending: the `l`-th is
    /// the one stored at local index `l`. O(owned) for every kind, so no
    /// walk has to test ownership point by point.
    pub fn owned(&self, q: usize) -> impl Iterator<Item = i64> + '_ {
        (1..=self.local_count(q)).map(move |l| self.global_of_local(q, l))
    }
}

/// Effective distribution of one array: the composition of its alignment
/// and its decomposition's distribution.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ArrayDist {
    /// Per-array-dimension partitions (alignment already applied).
    pub dims: Vec<DimPartition>,
    /// Alignment offsets per array dimension (global array index + offset =
    /// decomposition index). Owner queries apply these before partitioning.
    pub offsets: Vec<i64>,
    /// The processor grid.
    pub grid: ProcGrid,
    /// `grid_axis[d]` = grid axis for array dimension `d` (None if serial).
    pub grid_axis: Vec<Option<usize>>,
}

impl ArrayDist {
    /// A fully serial (replicated) distribution — used for scalars and
    /// arrays with no reaching decomposition.
    pub fn replicated(array_extents: &[i64]) -> Self {
        ArrayDist {
            dims: array_extents
                .iter()
                .map(|&e| DimPartition {
                    kind: DistKind::Serial,
                    extent: e,
                    nprocs: 1,
                })
                .collect(),
            offsets: vec![0; array_extents.len()],
            grid: ProcGrid::new(1, 0),
            grid_axis: vec![None; array_extents.len()],
        }
    }

    /// Array rank.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// True if no dimension is distributed.
    pub fn is_replicated(&self) -> bool {
        self.dims.iter().all(|d| !d.kind.is_distributed())
    }

    /// Owning processor (linear rank) of the element at `point` (1-based
    /// global indices). Grid coordinates live on the stack (Fortran arrays
    /// have at most 7 dimensions): this runs per reference under run-time
    /// resolution.
    #[inline]
    pub fn owner_of(&self, point: &[i64]) -> usize {
        let naxes = self.grid.shape.len();
        assert!(naxes <= 8, "process grid rank > 8");
        let mut coords = [0usize; 8];
        for (d, &x) in point.iter().enumerate() {
            if let Some(axis) = self.grid_axis[d] {
                coords[axis] = self.dims[d].owner(x + self.offsets[d]);
            }
        }
        self.grid.rank_of(&coords[..naxes])
    }

    /// Local index of global `g` along array dimension `dim` (identity on
    /// serial dimensions) — the `LocalIdx` expression of run-time
    /// resolution.
    #[inline]
    pub fn local_idx(&self, dim: usize, g: i64) -> i64 {
        if self.grid_axis[dim].is_some() {
            self.dims[dim].local_of_global(g + self.offsets[dim])
        } else {
            g
        }
    }

    /// Writes the local (1-based) indices of a global point on its owner
    /// into `out`, without allocating.
    #[inline]
    pub fn local_of_global_into(&self, point: &[i64], out: &mut [i64]) {
        for (d, (&x, o)) in point.iter().zip(out).enumerate() {
            *o = self.local_idx(d, x);
        }
    }

    /// Local (1-based) indices of a global point on its owner.
    pub fn local_of_global(&self, point: &[i64]) -> Vec<i64> {
        let mut out = vec![0; point.len()];
        self.local_of_global_into(point, &mut out);
        out
    }

    /// Declared local extents (maximum local counts) per dimension — the
    /// reduced array bounds the code generator emits.
    pub fn local_extents(&self) -> Vec<i64> {
        self.dims
            .iter()
            .enumerate()
            .map(|(d, dp)| {
                if self.grid_axis[d].is_some() {
                    dp.local_extent()
                } else {
                    dp.extent
                }
            })
            .collect()
    }

    /// The `1:extent` bounds of a store holding one rank's local part.
    pub fn local_bounds(&self) -> Vec<(i64, i64)> {
        self.local_extents().iter().map(|&e| (1, e)).collect()
    }

    /// Global (pre-partitioning) extents, in array index space.
    pub fn global_extents(&self) -> Vec<i64> {
        self.dims
            .iter()
            .zip(&self.offsets)
            .map(|(dp, off)| dp.extent - off)
            .collect()
    }

    /// Grid coordinates of `rank` if it owns any of the array: a rank
    /// beyond the grid, or off coordinate 0 of a grid axis no dimension is
    /// mapped to, owns nothing (so an all-serial array has rank 0 as its
    /// one owner).
    pub fn owner_coords(&self, rank: usize) -> Option<Vec<usize>> {
        let coords = self.grid.coords_of(rank);
        let mapped = |axis| self.grid_axis.contains(&Some(axis));
        let on_mapped = coords.iter().enumerate().all(|(a, &c)| c == 0 || mapped(a));
        (rank < self.nprocs() && on_mapped).then_some(coords)
    }

    /// Owner coordinate of array index `x` along dimension `dim`, on the
    /// grid axis the dimension is mapped to (0 on a serial dimension).
    #[inline]
    pub fn owner_along(&self, dim: usize, x: i64) -> usize {
        match self.grid_axis[dim] {
            Some(_) => self.dims[dim].owner(x + self.offsets[dim]),
            None => 0,
        }
    }

    /// The array indices along dimension `dim` that a rank at grid
    /// coordinates `coords` stores, ascending, each with its local index:
    /// the decomposition indices its coordinate owns with the alignment
    /// offset undone, clamped to the array; a serial dimension whole.
    pub fn owned_along<'a>(
        &'a self,
        dim: usize,
        coords: &[usize],
    ) -> impl Iterator<Item = (i64, i64)> + 'a {
        let q = self.grid_axis[dim].map_or(0, |axis| coords[axis]);
        let xs = self.dims[dim].owned(q).map(move |g| g - self.offsets[dim]);
        xs.filter(|&x| x >= 1)
            .map(move |x| (x, self.local_idx(dim, x)))
    }

    /// Total processors.
    pub fn nprocs(&self) -> usize {
        self.grid.nprocs()
    }

    /// Index of the (first) distributed array dimension, if any.
    pub fn first_dist_dim(&self) -> Option<usize> {
        self.dims.iter().position(|d| d.kind.is_distributed())
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
    fn bc(extent: i64, k: i64, p: usize) -> DimPartition {
        DimPartition {
            kind: DistKind::BlockCyclic(k),
            extent,
            nprocs: p,
        }
    }

    #[test]
    fn block_roundtrip() {
        let d = block(103, 7);
        for g in 1..=103 {
            let q = d.owner(g);
            let l = d.local_of_global(g);
            assert_eq!(d.global_of_local(q, l), g);
            assert!(l >= 1 && l <= d.local_count(q));
        }
    }

    #[test]
    fn block_cyclic_roundtrip() {
        let d = bc(37, 3, 4);
        let mut total = 0;
        for q in 0..4 {
            total += d.local_count(q);
        }
        assert_eq!(total, 37);
        for g in 1..=37 {
            let q = d.owner(g);
            let l = d.local_of_global(g);
            assert_eq!(d.global_of_local(q, l), g, "g={g} q={q} l={l}");
            assert!(l >= 1 && l <= d.local_count(q));
        }
    }

    /// `local_count` is exact for every kind, down to empty extents and
    /// coordinates that own nothing: the owned-index lists are generated
    /// from it.
    #[test]
    fn local_count_matches_brute_force() {
        let kinds = [
            DistKind::Block,
            DistKind::Cyclic,
            DistKind::BlockCyclic(1),
            DistKind::BlockCyclic(3),
        ];
        for kind in kinds {
            for extent in 0..=40 {
                for nprocs in 1..=7 {
                    let d = DimPartition {
                        kind,
                        extent,
                        nprocs,
                    };
                    for q in 0..nprocs {
                        let brute = (1..=extent).filter(|&g| d.owner(g) == q).count() as i64;
                        assert_eq!(d.local_count(q), brute, "{kind:?} {extent} {nprocs} {q}");
                    }
                }
            }
        }
    }

    #[test]
    fn serial_is_identity() {
        let d = DimPartition {
            kind: DistKind::Serial,
            extent: 50,
            nprocs: 1,
        };
        assert_eq!(d.owner(17), 0);
        assert_eq!(d.local_of_global(17), 17);
        assert_eq!(d.local_count(0), 50);
    }

    #[test]
    fn grid_factorization() {
        assert_eq!(ProcGrid::new(4, 1).shape, vec![4]);
        assert_eq!(ProcGrid::new(16, 2).nprocs(), 16);
        assert_eq!(ProcGrid::new(12, 2).nprocs(), 12);
        assert_eq!(ProcGrid::new(1, 0).nprocs(), 1);
        let g = ProcGrid::new(6, 2);
        assert_eq!(g.nprocs(), 6);
        // coords/rank roundtrip
        for r in 0..g.nprocs() {
            assert_eq!(g.rank_of(&g.coords_of(r)), r);
        }
    }

    #[test]
    fn replicated_owner_is_zero() {
        let ad = ArrayDist::replicated(&[100]);
        assert!(ad.is_replicated());
        assert_eq!(ad.owner_of(&[57]), 0);
        assert_eq!(ad.local_extents(), vec![100]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn kind_strategy() -> impl Strategy<Value = DistKind> {
        prop_oneof![
            Just(DistKind::Block),
            Just(DistKind::Cyclic),
            (1i64..6).prop_map(DistKind::BlockCyclic),
        ]
    }

    proptest! {
        /// The owned-index list of a coordinate is its part of the
        /// partition, in storage order.
        #[test]
        fn owned_lists_are_the_partition(
            kind in prop_oneof![kind_strategy(), Just(DistKind::Serial)],
            extent in 0i64..200, p in 1usize..9,
        ) {
            let p = if kind.is_distributed() { p } else { 1 };
            let d = DimPartition { kind, extent, nprocs: p };
            for q in 0..p {
                let owned: Vec<i64> = d.owned(q).collect();
                prop_assert_eq!(owned.len() as i64, d.local_count(q));
                prop_assert!(owned.windows(2).all(|w| w[0] < w[1]));
                for (l, &g) in (1i64..).zip(&owned) {
                    prop_assert!(g >= 1 && g <= extent);
                    prop_assert_eq!(d.owner(g), q);
                    prop_assert_eq!(d.local_of_global(g), l);
                }
            }
        }

        /// Every global index has exactly one owner/local pair and the
        /// mapping round-trips, for every distribution kind.
        #[test]
        fn owner_local_roundtrip(kind in kind_strategy(), extent in 1i64..200, p in 1usize..9) {
            let d = DimPartition { kind, extent, nprocs: p };
            for g in 1..=extent {
                let q = d.owner(g);
                prop_assert!(q < p);
                let l = d.local_of_global(g);
                prop_assert!(l >= 1);
                prop_assert_eq!(d.global_of_local(q, l), g);
            }
        }

        /// Local counts sum to the extent (the partition is exact).
        #[test]
        fn counts_partition_extent(kind in kind_strategy(), extent in 1i64..200, p in 1usize..9) {
            let d = DimPartition { kind, extent, nprocs: p };
            let total: i64 = (0..p).map(|q| d.local_count(q)).sum();
            prop_assert_eq!(total, extent);
            // And local_count agrees with brute-force ownership.
            for q in 0..p {
                let brute = (1..=extent).filter(|&g| d.owner(g) == q).count() as i64;
                prop_assert_eq!(d.local_count(q), brute);
            }
        }

        /// local_extent bounds every local index.
        #[test]
        fn local_extent_is_max(kind in kind_strategy(), extent in 1i64..200, p in 1usize..9) {
            let d = DimPartition { kind, extent, nprocs: p };
            let le = d.local_extent();
            for g in 1..=extent {
                prop_assert!(d.local_of_global(g) <= le);
            }
        }
    }
}
