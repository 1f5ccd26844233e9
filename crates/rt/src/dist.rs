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

    /// What coordinate `q` owns, as ascending runs of global indices with
    /// the local indices they are stored at: one contiguous run for
    /// `BLOCK` and a serial dimension, one run stepping `p` for `CYCLIC`,
    /// one run per owned block for `BLOCK_CYCLIC` (the last one cut short
    /// by the extent). O(runs), so no walk visits ownership point by point.
    pub(crate) fn runs(&self, q: usize) -> impl Iterator<Item = Run> + '_ {
        let count = self.local_count(q);
        let (p, q) = (self.nprocs as i64, q as i64);
        // The number of runs, each one's length and step, and `k` such
        // that run `j` starts at `(j·p + q)·k + 1`: no division per run.
        let (nruns, len, dx, k) = match self.kind {
            _ if count == 0 => (0, 0, 1, 0),
            DistKind::Block => (1, count, 1, self.block_size()),
            DistKind::Cyclic => (1, count, p, 1),
            DistKind::BlockCyclic(k) if p > 1 => ((count + k - 1) / k, k, 1, k),
            DistKind::BlockCyclic(_) | DistKind::Serial => (1, count, 1, 0),
        };
        (0..nruns).map(move |j| Run {
            x: (j * p + q) * k + 1,
            dx,
            l: j * len + 1,
            dl: 1,
            n: len.min(count - j * len),
        })
    }
}

/// A strided run of indices along one dimension: `n` indices from `x` by
/// `dx`, stored at the local indices from `l` by `dl`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Run {
    pub x: i64,
    pub dx: i64,
    pub l: i64,
    pub dl: i64,
    pub n: i64,
}

impl Run {
    /// The last index.
    fn last(&self) -> i64 {
        self.x + (self.n - 1) * self.dx
    }

    /// The `i`-th index onwards, `None` if there are none left.
    fn skip(self, i: i64) -> Option<Run> {
        (i < self.n).then_some(Run {
            x: self.x + i * self.dx,
            l: self.l + i * self.dl,
            n: self.n - i,
            ..self
        })
    }

    /// The indices `self` and `other` share, as a run of each: the same
    /// indices, at the local indices each stores them. `None` if they
    /// share none. Two arithmetic progressions meet in one whose step is
    /// the lcm of theirs, from the first common index at or above both
    /// starts (the Chinese remainder theorem).
    pub(crate) fn meet(&self, other: &Run) -> Option<(Run, Run)> {
        let (a, b) = (self, other);
        // u with a.dx·u ≡ g (mod b.dx), g = gcd(a.dx, b.dx).
        let (mut g, mut r, mut u, mut v) = (a.dx, b.dx, 1i64, 0i64);
        while r != 0 {
            let q = g / r;
            (g, r) = (r, g - q * r);
            (u, v) = (v, u - q * v);
        }
        let diff = b.x - a.x;
        if diff % g != 0 {
            return None;
        }
        let (m, dx) = (b.dx / g, a.dx / g * b.dx);
        // a.x + a.dx·t is congruent to both starts.
        let t = ((diff / g) % m * (u % m)).rem_euclid(m);
        let lo = a.x.max(b.x);
        let x = lo + (a.x + a.dx * t - lo).rem_euclid(dx);
        let last = a.last().min(b.last());
        if x > last {
            return None;
        }
        let n = (last - x) / dx + 1;
        let on = |r: &Run| Run {
            x,
            dx,
            l: r.l + (x - r.x) / r.dx * r.dl,
            dl: dx / r.dx * r.dl,
            n,
        };
        Some((on(a), on(b)))
    }
}

/// Calls `f` with each run of indices two ascending lists of runs share, in
/// ascending order. The runs of one list cover disjoint ranges (true of
/// every list [`DimPartition::runs`] makes), so one merge pass meets each
/// run only with those whose range overlaps its own.
pub(crate) fn shared(mine: &[Run], theirs: &[Run], mut f: impl FnMut(Run, Run)) {
    let (mut i, mut j) = (0, 0);
    while let (Some(a), Some(b)) = (mine.get(i), theirs.get(j)) {
        if let Some((x, y)) = a.meet(b) {
            f(x, y);
        }
        if a.last() < b.last() {
            i += 1;
        } else {
            j += 1;
        }
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

    /// The bounds of a store holding one rank's part under this
    /// distribution with the overlap cells `bounds` has around its part
    /// under `was`: what a remap from `was` (or an array kill) allocates,
    /// so a shifted read still finds the cells its exchange fills.
    pub fn local_bounds_like(&self, bounds: &[(i64, i64)], was: &ArrayDist) -> Vec<(i64, i64)> {
        let extents = self.local_extents().into_iter().zip(was.local_extents());
        (extents.zip(bounds))
            .map(|((now, then), &(lo, hi))| (lo, hi - then + now))
            .collect()
    }

    /// The grid coordinate along dimension `dim` of a rank at grid
    /// coordinates `coords` (0 on a serial dimension).
    pub(crate) fn coord_along(&self, dim: usize, coords: &[usize]) -> usize {
        self.grid_axis[dim].map_or(0, |axis| coords[axis])
    }

    /// The number of coordinates along dimension `dim`'s grid axis (1 on a
    /// serial dimension).
    pub(crate) fn width_along(&self, dim: usize) -> usize {
        self.grid_axis[dim].map_or(1, |axis| self.grid.shape[axis])
    }

    /// The array indices along dimension `dim` that coordinate `q` of its
    /// grid axis stores, as ascending runs with their local indices: the
    /// decomposition indices `q` owns with the alignment offset undone,
    /// clamped to the array; a serial dimension whole, stored at its array
    /// indices.
    pub(crate) fn runs_along(&self, dim: usize, q: usize) -> impl Iterator<Item = Run> + '_ {
        let (off, serial) = (self.offsets[dim], self.grid_axis[dim].is_none());
        self.dims[dim].runs(q).filter_map(move |r| {
            let x = r.x - off;
            let l = if serial { x } else { r.l };
            // The first index at or above 1.
            let skip = ((1 - x).max(0) + r.dx - 1) / r.dx;
            Run { x, l, ..r }.skip(skip)
        })
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

    /// The runs along a dimension are clamped to the array: with `X(i)`
    /// aligned to `D(i+10)`, `D(110)` BLOCK over 11 ranks, rank 0 owns
    /// `D(1:10)` and none of `X`; rank 10 owns `D(101:110)`, which is
    /// `X(91:100)`, stored at `1:10`. A serial dimension is stored at its
    /// array indices.
    #[test]
    fn runs_along_undo_the_alignment_offset() {
        let ad = ArrayDist {
            dims: vec![
                block(110, 11),
                DimPartition {
                    kind: DistKind::Serial,
                    extent: 7,
                    nprocs: 1,
                },
            ],
            offsets: vec![10, 2],
            grid: ProcGrid::new(11, 1),
            grid_axis: vec![Some(0), None],
        };
        assert_eq!(ad.runs_along(0, 0).count(), 0);
        let run = |x, dx, l, n| Run { x, dx, l, dl: 1, n };
        assert_eq!(
            ad.runs_along(0, 10).collect::<Vec<_>>(),
            [run(91, 1, 1, 10)]
        );
        assert_eq!(ad.runs_along(1, 0).collect::<Vec<_>>(), [run(1, 1, 1, 5)]);
        // CYCLIC over 4 with offset 2: coordinate 1 owns D(2, 6, 10, ...);
        // X(4) = D(6) is the first, stored second.
        let cyc = ArrayDist {
            dims: vec![DimPartition {
                kind: DistKind::Cyclic,
                extent: 22,
                nprocs: 4,
            }],
            offsets: vec![2],
            grid: ProcGrid::new(4, 1),
            grid_axis: vec![Some(0)],
        };
        assert_eq!(cyc.runs_along(0, 1).collect::<Vec<_>>(), [run(4, 4, 2, 5)]);
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

    /// The indices of a run with their local indices.
    fn points(r: &Run) -> impl Iterator<Item = (i64, i64)> + '_ {
        (0..r.n).map(|i| (r.x + i * r.dx, r.l + i * r.dl))
    }

    fn kind_strategy() -> impl Strategy<Value = DistKind> {
        prop_oneof![
            Just(DistKind::Block),
            Just(DistKind::Cyclic),
            (1i64..6).prop_map(DistKind::BlockCyclic),
        ]
    }

    proptest! {
        /// The runs of a coordinate are its part of the partition, in
        /// storage order, over disjoint ascending ranges.
        #[test]
        fn owned_lists_are_the_partition(
            kind in prop_oneof![kind_strategy(), Just(DistKind::Serial)],
            extent in 0i64..200, p in 1usize..9,
        ) {
            let p = if kind.is_distributed() { p } else { 1 };
            let d = DimPartition { kind, extent, nprocs: p };
            for q in 0..p {
                let runs: Vec<Run> = d.runs(q).collect();
                prop_assert!(runs.windows(2).all(|w| w[0].last() < w[1].x));
                let owned: Vec<(i64, i64)> = runs.iter().flat_map(points).collect();
                prop_assert_eq!(owned.len() as i64, d.local_count(q));
                for (l, &(g, at)) in (1i64..).zip(&owned) {
                    prop_assert!(g >= 1 && g <= extent);
                    prop_assert_eq!(d.owner(g), q);
                    prop_assert_eq!(d.local_of_global(g), l);
                    prop_assert_eq!(at, l);
                }
            }
        }

        /// Two runs meet in exactly the indices both hold, each side at
        /// the local index it stores the index at.
        #[test]
        fn runs_meet_in_their_common_indices(
            a in (1i64..40, 1i64..7, 1i64..9, 1i64..4, 1i64..12),
            b in (1i64..40, 1i64..7, 1i64..9, 1i64..4, 1i64..12),
        ) {
            let run = |(x, dx, l, dl, n)| Run { x, dx, l, dl, n };
            let (a, b) = (run(a), run(b));
            let on_b: std::collections::BTreeMap<i64, i64> = points(&b).collect();
            let want: Vec<((i64, i64), (i64, i64))> = points(&a)
                .filter_map(|(x, la)| Some(((x, la), (x, *on_b.get(&x)?))))
                .collect();
            let got: Vec<_> = match a.meet(&b) {
                Some((x, y)) => points(&x).zip(points(&y)).collect(),
                None => Vec::new(),
            };
            prop_assert_eq!(got, want);
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
