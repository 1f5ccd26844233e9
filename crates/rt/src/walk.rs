//! The ownership walks: initial scatter, final assembly and the dynamic
//! remap of §6, written once over a [`LocalStore`] and a `send` callback.
//!
//! Ownership is decided one dimension at a time, so the points a rank
//! stores — and the points one rank holds before a remap and another
//! after it — are a cartesian product of per-dimension sets. Each set is
//! a few strided runs computed from the `DistKind` arithmetic (one for
//! `BLOCK`, `CYCLIC` and a serial dimension, one per owned block for
//! `BLOCK_CYCLIC`); what two ranks share along a dimension is the runs'
//! intersection, again runs. A run becomes a span in each of the two
//! buffers a walk moves between (an offset and a step), so a walk is
//! nested loops over runs that copies each innermost span whole
//! (`copy_from_slice` where both sides are contiguous): its cost is
//! O(runs + elements moved), and it touches only what it moves. The
//! product is visited first dimension outermost, which is ascending
//! row-major order of the global points: a message's payload order is the
//! same on the sending and the receiving rank and on every back end.

use crate::dist::{shared, ArrayDist, Run};
use crate::space::{rect_for_each, rect_len};
use crate::REMAP_TAG_BASE;

/// One rank's storage of one array as the library routines see it: a box
/// of per-dimension bounds over one dense buffer, in the back end's own
/// order (row-major in the simulator, column-major in native node
/// programs).
pub trait LocalStore {
    /// Whether `data` runs first subscript fastest (Fortran order) rather
    /// than last subscript fastest.
    const COLUMN_MAJOR: bool;
    /// Per-dimension `(lo, hi)` subscript bounds.
    fn bounds(&self) -> &[(i64, i64)];
    /// The elements of the box, densely, in the store's order.
    fn data(&self) -> &[f64];
    /// The elements of the box, writable.
    fn data_mut(&mut self) -> &mut [f64];
    /// Reads the element at in-bounds subscripts.
    fn get(&self, subs: &[i64]) -> f64;
    /// Writes the element at in-bounds subscripts.
    fn set(&mut self, subs: &[i64], v: f64);
}

/// Packs a rect section of `store` onto the end of a message buffer.
pub fn pack<S: LocalStore>(store: &S, dims: &[(i64, i64, i64)], buf: &mut Vec<f64>) {
    rect_for_each(dims, |pt| buf.push(store.get(pt)));
}

/// Unpacks a message buffer into a rect section of `store`.
pub fn unpack<S: LocalStore>(store: &mut S, dims: &[(i64, i64, i64)], data: &[f64]) {
    assert_eq!(rect_len(dims), data.len(), "section/message size mismatch");
    let mut values = data.iter();
    rect_for_each(dims, |pt| {
        store.set(pt, *values.next().expect("sized above"))
    });
}

/// Where a box of subscripts sits in a dense buffer: a point's offset is
/// the sum of one term per dimension.
struct Layout {
    /// Per dimension, the subscript bounds `lo`, `hi` and the stride.
    dims: Vec<(i64, i64, usize)>,
    len: usize,
}

impl Layout {
    fn new(bounds: impl Iterator<Item = (i64, i64)>, column_major: bool) -> Layout {
        let mut dims: Vec<_> = bounds.map(|(lo, hi)| (lo, hi, 0)).collect();
        let (n, mut len) = (dims.len(), 1);
        for i in 0..n {
            // Strides grow from the fastest-varying dimension.
            let d = if column_major { i } else { n - 1 - i };
            dims[d].2 = len;
            len *= (dims[d].1 - dims[d].0 + 1).max(0) as usize;
        }
        Layout { dims, len }
    }

    fn of<S: LocalStore>(store: &S) -> Layout {
        Layout::new(store.bounds().iter().copied(), S::COLUMN_MAJOR)
    }

    /// The row-major global buffer of an array distributed as `dist`.
    fn global(dist: &ArrayDist) -> Layout {
        Layout::new(dist.global_extents().into_iter().map(|e| (1, e)), false)
    }

    /// Offset and step of the `n` subscripts from `x` by `dx` along
    /// dimension `d`, every one of which the box must hold.
    fn at(&self, d: usize, x: i64, dx: i64, n: i64) -> (usize, usize) {
        let (lo, hi, stride) = self.dims[d];
        let last = x + (n - 1) * dx;
        assert!(
            lo <= x && last <= hi,
            "owned subscripts {x}..={last} outside the store's {lo}:{hi} (dim {d})"
        );
        ((x - lo) as usize * stride, dx as usize * stride)
    }
}

/// One dimension's share of a walk between two buffers: `n` elements from
/// offset `a` by `da` in one and from `b` by `db` in the other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    a: usize,
    da: usize,
    b: usize,
    db: usize,
    n: usize,
}

impl Span {
    /// `n` elements at the offsets and steps `a` and `b` give.
    fn new(n: i64, (a, da): (usize, usize), (b, db): (usize, usize)) -> Span {
        Span {
            a,
            da,
            b,
            db,
            n: n as usize,
        }
    }
}

/// The number of points in the product of per-dimension span lists.
fn points<L: AsRef<[Span]>>(lists: &[L]) -> usize {
    let along = |l: &L| l.as_ref().iter().map(|s| s.n).sum::<usize>();
    lists.iter().map(along).product()
}

/// Visits the cartesian product of per-dimension span lists, first
/// dimension outermost, calling `f` with each span of the last dimension,
/// the outer dimensions' offsets added to `a` and `b`: ascending
/// row-major order of the points, one call per innermost span rather than
/// per point.
fn for_each_span<L: AsRef<[Span]>>(lists: &[L], a: usize, b: usize, f: &mut impl FnMut(Span)) {
    match lists {
        [] => f(Span::new(1, (a, 1), (b, 1))),
        [last] => (last.as_ref().iter()).for_each(|s| {
            f(Span {
                a: a + s.a,
                b: b + s.b,
                ..*s
            })
        }),
        [first, rest @ ..] => {
            for s in first.as_ref() {
                for i in 0..s.n {
                    for_each_span(rest, a + s.a + i * s.da, b + s.b + i * s.db, f);
                }
            }
        }
    }
}

/// Copies `n` elements from `from` (at `f` by `df`) to `to` (at `t` by
/// `dt`): one slice copy where both are contiguous.
#[inline]
fn copy(to: &mut [f64], (t, dt): (usize, usize), from: &[f64], (f, df): (usize, usize), n: usize) {
    if dt == 1 && df == 1 {
        to[t..t + n].copy_from_slice(&from[f..f + n]);
    } else {
        for i in 0..n {
            to[t + i * dt] = from[f + i * df];
        }
    }
}

/// Appends `n` elements of `from` (at `f` by `df`) to `buf`.
#[inline]
fn push(buf: &mut Vec<f64>, from: &[f64], (f, df): (usize, usize), n: usize) {
    if df == 1 {
        buf.extend_from_slice(&from[f..f + n]);
    } else {
        buf.extend((0..n).map(|i| from[f + i * df]));
    }
}

/// Refills `lists` with, per dimension, the runs a rank at grid
/// coordinates `coords` stores under `dist`, as the spans `span(d, run)`
/// gives them.
fn stored_spans(
    lists: &mut [Vec<Span>],
    dist: &ArrayDist,
    coords: &[usize],
    span: impl Fn(usize, &Run) -> Span,
) {
    for (d, list) in lists.iter_mut().enumerate() {
        list.clear();
        let runs = dist.runs_along(d, dist.coord_along(d, coords));
        list.extend(runs.map(|r| span(d, &r)));
    }
}

/// Fills the local part of `store` (distributed as `dist` on rank `my`)
/// from a row-major global buffer. Replicated (serial) dimensions store on
/// every rank; distributed dimensions only on the owner. Run-time
/// resolution storage is the caller's business (a full copy). A store
/// whose box misses a point the rank owns panics.
pub fn scatter_init<S: LocalStore>(store: &mut S, dist: &ArrayDist, global: &[f64], my: usize) {
    let (from, to) = (Layout::global(dist), Layout::of(store));
    assert_eq!(from.len, global.len(), "initial data size mismatch");
    let mut lists = vec![Vec::new(); dist.rank()];
    stored_spans(&mut lists, dist, &dist.grid.coords_of(my), |d, r| {
        Span::new(r.n, from.at(d, r.x, r.dx, r.n), to.at(d, r.l, r.dl, r.n))
    });
    let data = store.data_mut();
    for_each_span(&lists, 0, 0, &mut |s| {
        copy(data, (s.b, s.db), global, (s.a, s.da), s.n)
    });
}

/// Assembles the row-major global contents of an array from its final
/// stores, `per_rank[r]` being rank `r`'s, reading each element from its
/// owner under `dist`. `global_indexed` storage (run-time resolution) is
/// subscripted by the global point, any other by the owner's local
/// indices. A store whose box misses a point its rank owns panics.
pub fn assemble<S: LocalStore>(
    dist: &ArrayDist,
    global_indexed: bool,
    per_rank: &[&S],
) -> Vec<f64> {
    let to = Layout::global(dist);
    let mut global = vec![0.0; to.len];
    // One set of lists for every rank: with many small arrays their
    // allocation is what an assembly costs.
    let mut lists = vec![Vec::new(); dist.rank()];
    for (rank, src) in per_rank.iter().enumerate() {
        let Some(coords) = dist.owner_coords(rank) else {
            continue;
        };
        let (from, data) = (Layout::of(*src), src.data());
        stored_spans(&mut lists, dist, &coords, |d, r| {
            let stored = if global_indexed {
                from.at(d, r.x, r.dx, r.n)
            } else {
                from.at(d, r.l, r.dl, r.n)
            };
            Span::new(r.n, stored, to.at(d, r.x, r.dx, r.n))
        });
        for_each_span(&lists, 0, 0, &mut |s| {
            copy(&mut global, (s.b, s.db), data, (s.a, s.da), s.n)
        });
    }
    global
}

/// The points rank `my` owns under `mine`, split by their owner under
/// `theirs`: what it exchanges with one peer is the product of one span
/// list per dimension, each the runs the two owners share along it.
struct Split {
    my: usize,
    theirs: ArrayDist,
    /// The span lists of every dimension `d` and coordinate `c` of `d`'s
    /// grid axis under `theirs` (`c` = 0 where `theirs` leaves `d`
    /// serial), dimension by dimension: list `k` is
    /// `spans[ends[k]..ends[k + 1]]`, the indices along `d` that `my` owns
    /// under `mine` and `c` owns under `theirs`.
    spans: Vec<Span>,
    ends: Vec<usize>,
}

impl Split {
    /// `span(d, mine, theirs)` gives the spans of a run of indices along
    /// `d`, stored as `mine` under `mine` and as `theirs` under `theirs`.
    fn new(
        mine: &ArrayDist,
        theirs: &ArrayDist,
        my: usize,
        span: impl Fn(usize, &Run, &Run) -> Span,
    ) -> Split {
        let shape = mine.global_extents();
        assert_eq!(shape, theirs.global_extents(), "remap changes array shape");
        let coords = mine.owner_coords(my);
        let (mut ours, mut peers) = (Vec::new(), Vec::new());
        let (mut spans, mut ends) = (Vec::new(), vec![0]);
        for d in 0..mine.rank() {
            ours.clear();
            if let Some(coords) = &coords {
                ours.extend(mine.runs_along(d, mine.coord_along(d, coords)));
            }
            for c in 0..theirs.width_along(d) {
                peers.clear();
                peers.extend(theirs.runs_along(d, c));
                shared(&ours, &peers, |a, b| spans.push(span(d, &a, &b)));
                ends.push(spans.len());
            }
        }
        Split {
            my,
            theirs: theirs.clone(),
            spans,
            ends,
        }
    }

    /// The per-dimension span lists of the points `peer` owns under
    /// `theirs`; `None` when there are none.
    fn with(&self, peer: usize) -> Option<Vec<&[Span]>> {
        let coords = self.theirs.owner_coords(peer)?;
        let mut first = 0;
        (0..self.theirs.rank())
            .map(|d| {
                let k = first + self.theirs.coord_along(d, &coords);
                first += self.theirs.width_along(d);
                let spans = &self.spans[self.ends[k]..self.ends[k + 1]];
                (!spans.is_empty()).then_some(spans)
            })
            .collect()
    }

    /// Sends every other rank of `nprocs`, in rank order, what `data`
    /// holds for it.
    fn post(&self, nprocs: usize, data: &[f64], mut send: impl FnMut(usize, u64, Vec<f64>)) {
        for dst in (0..nprocs).filter(|&dst| dst != self.my) {
            if let Some(lists) = self.with(dst) {
                let mut buf = Vec::with_capacity(points(&lists));
                for_each_span(&lists, 0, 0, &mut |s| {
                    push(&mut buf, data, (s.a, s.da), s.n)
                });
                send(dst, REMAP_TAG_BASE + dst as u64, buf);
            }
        }
    }
}

/// Whether the walks of a remap to `dist` write every cell of rank `my`'s
/// store with `bounds`: along each dimension the rank stores exactly the
/// local indices of the box, no overlap cell and no padding.
fn fills(dist: &ArrayDist, my: usize, bounds: &[(i64, i64)]) -> bool {
    let Some(coords) = dist.owner_coords(my) else {
        return false;
    };
    let whole = |d: usize, (lo, hi): (i64, i64)| {
        // Owned runs step 1 through the local indices: they must be
        // `lo..=hi` one after another.
        let mut runs = dist.runs_along(d, dist.coord_along(d, &coords));
        runs.try_fold(lo, |at, r| (at == r.l).then_some(at + r.n)) == Some(hi + 1)
    };
    (bounds.iter().enumerate()).all(|(d, &b)| whole(d, b))
}

/// A dynamic remap (library routine of §6) of one array on one rank,
/// between its two halves. The first half ([`Remap::begin`],
/// [`Remap::begin_global`]) sends everything this rank has to send through
/// the `send` callback and lists what it will be sent; it never blocks.
/// The second half takes one source's message at a time
/// ([`Remap::expects`] / [`Remap::accept`]) — receiving it is the
/// routine's only blocking point and stays with the caller, which may
/// block in place or suspend between sources. Charging the remap call is
/// the caller's too; the routine only moves data.
pub struct Remap<S> {
    /// The store being filled under the new distribution; `None` under
    /// run-time resolution, whose global-shaped storage is updated in
    /// place and subscripted by the global point.
    new: Option<S>,
    /// What this rank owns afterwards, by old owner; the first offset of
    /// a span is in the store being filled.
    incoming: Split,
    /// The source accepted next.
    src: usize,
}

impl<S: LocalStore> Remap<S> {
    /// First half of a full remap on rank `my` of `nprocs`: moves the
    /// contents of `old` (distributed as `d0`) towards `new`, a store whose
    /// bounds hold this rank's part under `d1` (they may add overlap
    /// cells: [`ArrayDist::local_bounds_like`]). Kept points are copied
    /// directly. Whatever `new` holds is overwritten: a store the remap
    /// fills cell by cell is not cleared first, any other is zeroed, so a
    /// caller may recycle the buffer of an earlier remap's old store.
    pub fn begin(
        d0: &ArrayDist,
        d1: &ArrayDist,
        my: usize,
        nprocs: usize,
        old: &S,
        mut new: S,
        send: impl FnMut(usize, u64, Vec<f64>),
    ) -> Remap<S> {
        let (from, to) = (Layout::of(old), Layout::of(&new));
        let moved = |d, a: &Run, b: &Run| {
            Span::new(a.n, from.at(d, a.l, a.dl, a.n), to.at(d, b.l, b.dl, b.n))
        };
        if !fills(d1, my, new.bounds()) {
            new.data_mut().fill(0.0);
        }
        let outgoing = Split::new(d0, d1, my, moved);
        outgoing.post(nprocs, old.data(), send);
        if let Some(kept) = outgoing.with(my) {
            let (old, new) = (old.data(), new.data_mut());
            for_each_span(&kept, 0, 0, &mut |s| {
                copy(new, (s.b, s.db), old, (s.a, s.da), s.n)
            });
        }
        let filled = |d, a: &Run, _: &Run| Span::new(a.n, to.at(d, a.l, a.dl, a.n), (0, 0));
        Remap {
            new: Some(new),
            incoming: Split::new(d1, d0, my, filled),
            src: 0,
        }
    }

    /// First half of a run-time resolution remap: `store` stays
    /// global-shaped; the authoritative values move from old owners (`d0`)
    /// to new owners (`d1`) in place. The caller updates the array's
    /// owner distribution afterwards.
    pub fn begin_global(
        d0: &ArrayDist,
        d1: &ArrayDist,
        my: usize,
        nprocs: usize,
        store: &S,
        send: impl FnMut(usize, u64, Vec<f64>),
    ) -> Remap<S> {
        let at = Layout::of(store);
        let span = |d, a: &Run, _: &Run| Span::new(a.n, at.at(d, a.x, a.dx, a.n), (0, 0));
        Split::new(d0, d1, my, span).post(nprocs, store.data(), send);
        Remap {
            new: None,
            incoming: Split::new(d1, d0, my, span),
            src: 0,
        }
    }

    /// The next source that sends this rank anything and the tag its
    /// message carries; `None` once every message has been accepted.
    pub fn expects(&mut self) -> Option<(usize, u64)> {
        let Split { my, theirs, .. } = &self.incoming;
        while self.src < theirs.nprocs() {
            if self.src != *my && self.incoming.with(self.src).is_some() {
                return Some((self.src, REMAP_TAG_BASE + *my as u64));
            }
            self.src += 1;
        }
        None
    }

    /// Unpacks the message of the source [`Remap::expects`] named. `store`
    /// is the array being remapped; its new distribution is not consulted
    /// again (every offset was fixed when the remap began).
    pub fn accept(&mut self, _d1: &ArrayDist, data: &[f64], store: &mut S) {
        let lists = (self.incoming.with(self.src)).expect("accept follows expects");
        assert_eq!(data.len(), points(&lists), "remap message size mismatch");
        let into = self.new.as_mut().unwrap_or(store).data_mut();
        let mut at = 0;
        for_each_span(&lists, 0, 0, &mut |s| {
            copy(into, (s.a, s.da), data, (at, 1), s.n);
            at += s.n;
        });
        self.src += 1;
    }

    /// Every message is in: a full remap replaces `store` with the new one
    /// and returns the old one.
    pub fn finish(self, store: &mut S) -> Option<S> {
        Some(std::mem::replace(store, self.new?))
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::dist::{DimPartition, DistKind, ProcGrid};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    // The oracle: the point-by-point walks the per-dimension lists
    // replaced. Every rank tests every global point for ownership.

    /// Visits every point of the `extents` box that `my` owns under
    /// `dist`, in row-major order, with its flat row-major index.
    fn for_each_owned(dist: &ArrayDist, my: usize, mut f: impl FnMut(&[i64], usize)) {
        let full: Vec<(i64, i64, i64)> =
            (dist.global_extents().iter().map(|&e| (1, e, 1))).collect();
        let mut flat = 0usize;
        rect_for_each(&full, |pt| {
            if dist.owner_of(pt) == my {
                f(pt, flat);
            }
            flat += 1;
        });
    }

    /// The sending side of a remap `d0 → d1` on rank `my`: per owner under
    /// `d1` (`my` itself for the points it keeps), the flat indices of the
    /// points `my` owns under `d0`, in row-major order.
    fn remap_outgoing(d0: &ArrayDist, d1: &ArrayDist, my: usize, nprocs: usize) -> Vec<Vec<usize>> {
        let mut outgoing = vec![Vec::new(); nprocs];
        for_each_owned(d0, my, |pt, flat| outgoing[d1.owner_of(pt)].push(flat));
        outgoing
    }

    /// The receiving side on rank `my`: per old owner `src != my`, the flat
    /// indices of the points `my` owns under `d1` and `src` owned under
    /// `d0`, in row-major order.
    fn remap_incoming(d0: &ArrayDist, d1: &ArrayDist, my: usize, nprocs: usize) -> Vec<Vec<usize>> {
        let mut incoming = vec![Vec::new(); nprocs];
        for_each_owned(d1, my, |pt, flat| {
            let src = d0.owner_of(pt);
            if src != my {
                incoming[src].push(flat);
            }
        });
        incoming
    }

    /// A dense box of `f64`s in either storage order.
    struct Store<const COLUMN_MAJOR: bool> {
        bounds: Vec<(i64, i64)>,
        data: Vec<f64>,
    }

    impl<const COLUMN_MAJOR: bool> Store<COLUMN_MAJOR> {
        fn new(extents: &[i64]) -> Self {
            Store::with_bounds(extents.iter().map(|&e| (1, e)).collect())
        }
        fn with_bounds(bounds: Vec<(i64, i64)>) -> Self {
            let len = bounds
                .iter()
                .map(|&(lo, hi)| (hi - lo + 1).max(0))
                .product::<i64>();
            Store {
                bounds,
                data: vec![0.0; len as usize],
            }
        }
        /// Written out longhand, independent of [`Layout`].
        fn flat(&self, subs: &[i64]) -> usize {
            assert_eq!(subs.len(), self.bounds.len());
            let mut dims: Vec<usize> = (0..subs.len()).collect();
            if COLUMN_MAJOR {
                dims.reverse();
            }
            dims.into_iter().fold(0, |flat, d| {
                let (lo, hi) = self.bounds[d];
                assert!((lo..=hi).contains(&subs[d]), "{subs:?} out of bounds");
                flat * (hi - lo + 1) as usize + (subs[d] - lo) as usize
            })
        }
    }

    impl<const COLUMN_MAJOR: bool> LocalStore for Store<COLUMN_MAJOR> {
        const COLUMN_MAJOR: bool = COLUMN_MAJOR;
        fn bounds(&self) -> &[(i64, i64)] {
            &self.bounds
        }
        fn data(&self) -> &[f64] {
            &self.data
        }
        fn data_mut(&mut self) -> &mut [f64] {
            &mut self.data
        }
        fn get(&self, subs: &[i64]) -> f64 {
            self.data[self.flat(subs)]
        }
        fn set(&mut self, subs: &[i64], v: f64) {
            let f = self.flat(subs);
            self.data[f] = v;
        }
    }

    /// `pack` appends a strided section of a rank-8 store (above the
    /// odometer's stack rank) in row-major order, and `unpack` puts it back
    /// and touches nothing else, in either storage order.
    #[test]
    fn pack_unpack_round_trip_rank_8() {
        fn round_trip<const COLUMN_MAJOR: bool>() {
            let extents = [2, 3, 2, 2, 1, 2, 2, 3];
            let mut src = Store::<COLUMN_MAJOR>::new(&extents);
            for (i, x) in src.data.iter_mut().enumerate() {
                *x = i as f64 + 0.5;
            }
            let dims: Vec<(i64, i64, i64)> = (extents.iter())
                .map(|&e| if e == 3 { (1, 3, 2) } else { (1, e, 1) })
                .collect();
            let mut buf = vec![-1.0];
            pack(&src, &dims, &mut buf);
            let mut payload = vec![-1.0];
            rect_for_each(&dims, |pt| payload.push(src.get(pt)));
            assert_eq!(buf, payload);
            let mut dst = Store::<COLUMN_MAJOR>::new(&extents);
            unpack(&mut dst, &dims, &buf[1..]);
            let whole: Vec<(i64, i64, i64)> = extents.iter().map(|&e| (1, e, 1)).collect();
            rect_for_each(&whole, |pt| {
                let inside = pt
                    .iter()
                    .zip(&dims)
                    .all(|(&x, &(lo, _, st))| (x - lo) % st == 0);
                let want = if inside { src.get(pt) } else { 0.0 };
                assert_eq!(dst.get(pt), want, "{pt:?}");
            });
        }
        round_trip::<false>();
        round_trip::<true>();
    }

    /// One dimension of a generated distribution: mapping kind and
    /// alignment offset.
    type Dim = (DistKind, i64);

    fn dim_strategy() -> impl Strategy<Value = Dim> {
        let kind = prop_oneof![
            Just(DistKind::Block),
            Just(DistKind::Cyclic),
            (1i64..4).prop_map(DistKind::BlockCyclic),
            Just(DistKind::Serial),
        ];
        (kind, 0i64..3)
    }

    /// The distribution of an array of `extents` over `p` ranks whose
    /// dimension `d` is mapped as `dims[d]`, built the way the compiler
    /// builds it: one grid axis per distributed dimension, in order.
    fn dist(extents: &[i64], dims: &[Dim], p: usize) -> ArrayDist {
        let naxes = dims.iter().filter(|(k, _)| k.is_distributed()).count();
        let grid = ProcGrid::new(if naxes == 0 { 1 } else { p }, naxes);
        let mut next_axis = 0;
        let mut grid_axis = Vec::new();
        let parts = extents
            .iter()
            .zip(dims)
            .map(|(&extent, &(kind, offset))| {
                let axis = kind.is_distributed().then(|| {
                    next_axis += 1;
                    next_axis - 1
                });
                grid_axis.push(axis);
                DimPartition {
                    kind,
                    extent: extent + offset,
                    nprocs: axis.map_or(1, |a| grid.shape[a]),
                }
            })
            .collect();
        ArrayDist {
            dims: parts,
            offsets: dims.iter().map(|&(_, off)| off).collect(),
            grid,
            grid_axis,
        }
    }

    /// Per peer of `p`, the flat global indices of the points `my`'s
    /// [`Split`] shares with it, in the order its walks visit them.
    fn flats(mine: &ArrayDist, theirs: &ArrayDist, my: usize, p: usize) -> Vec<Vec<usize>> {
        let global = Layout::global(mine);
        let span = |d, a: &Run, _: &Run| Span::new(a.n, global.at(d, a.x, a.dx, a.n), (0, 0));
        let split = Split::new(mine, theirs, my, span);
        let shared = |peer| {
            let mut flats = Vec::new();
            if let Some(lists) = split.with(peer) {
                for_each_span(&lists, 0, 0, &mut |s| {
                    flats.extend((0..s.n).map(|i| s.a + i * s.da))
                });
                assert_eq!(flats.len(), points(&lists));
            }
            flats
        };
        (0..p).map(shared).collect()
    }

    /// What a recycled store buffer holds before a remap fills it; no
    /// element value (`flat + 0.5`).
    const STALE: f64 = -1.0;

    /// The bounds of a store of one rank's part under `dist` with
    /// `overlap[d]` = (below, above) cells around dimension `d`'s.
    fn boxed(dist: &ArrayDist, overlap: &[(i64, i64)]) -> Vec<(i64, i64)> {
        let owned = dist.local_extents().into_iter().zip(overlap);
        owned
            .map(|(e, &(below, above))| (1 - below, e + above))
            .collect()
    }

    /// `d0 → d1` on every rank of `p`, against the oracle: the span lists
    /// name the oracle's points in the oracle's order for every rank pair,
    /// both remap routines send the oracle's messages and leave every
    /// element with its new owner, and assembly returns what was
    /// scattered. Local stores carry `overlap[d]` = (below, above) cells
    /// around the owned part of dimension `d`, kept across the remap.
    fn check_dists<const COLUMN_MAJOR: bool>(
        d0: &ArrayDist,
        d1: &ArrayDist,
        p: usize,
        overlap: &[(i64, i64)],
    ) -> Result<(), TestCaseError> {
        let extents = d0.global_extents();
        let total = extents.iter().product::<i64>() as usize;

        let mut seen = vec![0u32; total];
        let outgoing: Vec<Vec<Vec<usize>>> =
            (0..p).map(|src| remap_outgoing(d0, d1, src, p)).collect();
        for flat in outgoing.iter().flatten().flatten() {
            seen[*flat] += 1;
        }
        prop_assert!(
            seen.iter().all(|&n| n == 1),
            "a point is kept or sent exactly once"
        );
        for (my, oracle) in outgoing.iter().enumerate() {
            prop_assert_eq!(&flats(d0, d1, my, p), oracle, "from {}", my);
            // The receiving side lists the same points in the same order
            // (the oracle's excludes what a rank keeps).
            let mut incoming = flats(d1, d0, my, p);
            incoming[my].clear();
            prop_assert_eq!(&incoming, &remap_incoming(d0, d1, my, p), "to {}", my);
            for (src, received) in incoming.iter().enumerate().filter(|&(src, _)| src != my) {
                prop_assert_eq!(received, &outgoing[src][my], "{} -> {}", src, my);
            }
        }

        // The routines themselves, all ranks in lock step over a mailbox.
        for global_indexed in [false, true] {
            let value = |flat: usize| flat as f64 + 0.5;
            let global: Vec<f64> = (0..total).map(value).collect();
            // Run-time resolution storage is global-shaped, with no
            // overlap cells.
            let old_bounds: Vec<(i64, i64)> = if global_indexed {
                extents.iter().map(|&e| (1, e)).collect()
            } else {
                boxed(d0, overlap)
            };
            let mut mail: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
            let mut ranks = Vec::new();
            for (my, by_dst) in outgoing.iter().enumerate() {
                let mut old = Store::<COLUMN_MAJOR>::with_bounds(old_bounds.clone());
                let mut sent = Vec::new();
                let send = |dst: usize, tag: u64, buf: Vec<f64>| sent.push((dst, tag, buf));
                let remap = if global_indexed {
                    // Every rank holds the whole box; only what it owns is
                    // authoritative.
                    for_each_owned(d0, my, |pt, flat| old.set(pt, global[flat]));
                    Remap::begin_global(d0, d1, my, p, &old, send)
                } else {
                    scatter_init(&mut old, d0, &global, my);
                    // A recycled buffer: what it held must not survive.
                    let mut new = Store::with_bounds(d1.local_bounds_like(&old_bounds, d0));
                    prop_assert_eq!(&new.bounds, &boxed(d1, overlap));
                    new.data.fill(STALE);
                    Remap::begin(d0, d1, my, p, &old, new, send)
                };
                let expected: Vec<(usize, u64, Vec<f64>)> = (by_dst.iter().enumerate())
                    .filter(|&(dst, flats)| dst != my && !flats.is_empty())
                    .map(|(dst, flats)| {
                        let payload = flats.iter().map(|&f| value(f)).collect();
                        (dst, REMAP_TAG_BASE + dst as u64, payload)
                    })
                    .collect();
                prop_assert_eq!(&sent, &expected, "messages of rank {}", my);
                for (dst, _, buf) in sent {
                    mail.insert((my, dst), buf);
                }
                ranks.push((remap, old));
            }
            let mut stores = Vec::new();
            for (my, (mut remap, mut store)) in ranks.into_iter().enumerate() {
                while let Some((src, tag)) = remap.expects() {
                    prop_assert_eq!(tag, REMAP_TAG_BASE + my as u64);
                    let data = mail.remove(&(src, my)).expect("expected message was sent");
                    remap.accept(d1, &data, &mut store);
                }
                remap.finish(&mut store);
                prop_assert!(!store.data.contains(&STALE), "stale cell on rank {}", my);
                stores.push(store);
            }
            prop_assert!(mail.is_empty(), "every message sent is expected");
            let stores: Vec<&Store<COLUMN_MAJOR>> = stores.iter().collect();
            prop_assert_eq!(assemble(d1, global_indexed, &stores), global);
        }
        Ok(())
    }

    /// [`check_dists`] on generated distributions, in both storage orders.
    fn check(
        extents: &[i64],
        dims0: &[Dim],
        dims1: &[Dim],
        p: usize,
        overlap: &[(i64, i64)],
    ) -> Result<(), TestCaseError> {
        let (d0, d1) = (dist(extents, dims0, p), dist(extents, dims1, p));
        check_dists::<false>(&d0, &d1, p, overlap)?;
        check_dists::<true>(&d0, &d1, p, overlap)
    }

    /// The shapes the generators may not hit often enough to count on,
    /// each without overlap cells and with uneven ones.
    #[test]
    fn remap_walks_agree_on_named_shapes() {
        use DistKind::{Block, BlockCyclic, Cyclic, Serial};
        let ok = |extents: &[i64], dims0: &[Dim], dims1: &[Dim], p| {
            let uneven: Vec<(i64, i64)> = (0..extents.len() as i64)
                .map(|d| (d % 3, 2 - d % 3))
                .collect();
            for overlap in [vec![(0, 0); extents.len()], uneven] {
                check(extents, dims0, dims1, p, &overlap).unwrap()
            }
        };
        let (block, cyclic, serial) = ((Block, 0), (Cyclic, 0), (Serial, 0));
        // Two-axis grid against one axis.
        ok(&[7, 5], &[block, block], &[cyclic, serial], 6);
        // Multi-processor BLOCK_CYCLIC on both sides, with offsets.
        ok(&[23], &[(BlockCyclic(2), 1)], &[(BlockCyclic(3), 2)], 4);
        // BLOCK_CYCLIC whose last run the extent cuts short (10 = 3·3 + 1
        // over 2: rank 1's second block is `10` alone), against BLOCK and
        // against runs of another length.
        ok(&[10], &[(BlockCyclic(3), 0)], &[block], 2);
        ok(&[10], &[(BlockCyclic(3), 0)], &[(BlockCyclic(4), 0)], 2);
        // A non-zero alignment offset on a CYCLIC dimension, against
        // CYCLIC without one (runs stepping 3 that meet shifted) and
        // against a CYCLIC of another width (steps 3 and 6 meet every 6).
        ok(&[17], &[(Cyclic, 2)], &[cyclic], 3);
        ok(&[12, 5], &[(Cyclic, 1), cyclic], &[cyclic, serial], 6);
        // Extent smaller than p: ranks that own nothing.
        ok(&[3], &[block], &[cyclic], 5);
        ok(
            &[2, 3],
            &[(BlockCyclic(2), 1), block],
            &[cyclic, (Cyclic, 1)],
            7,
        );
        // All-serial source, then target: rank 0 is the one owner.
        ok(&[4, 3], &[serial, serial], &[block, serial], 3);
        ok(&[4, 3], &[(Serial, 1), cyclic], &[serial, serial], 3);
        // The adi shape, unevenly: (BLOCK,:) <-> (:,BLOCK).
        ok(&[13, 13], &[block, serial], &[serial, block], 3);
        ok(
            &[3, 4, 5],
            &[block, serial, (Cyclic, 2)],
            &[serial, (BlockCyclic(2), 1), block],
            4,
        );
        // A 1-D array aligned into a decomposition distributed on two
        // axes: only coordinate 0 of the axis it is not mapped to owns.
        let on_two_axes = |kind| ArrayDist {
            dims: vec![DimPartition {
                kind,
                extent: 9,
                nprocs: 3,
            }],
            offsets: vec![0],
            grid: ProcGrid { shape: vec![3, 2] },
            grid_axis: vec![Some(0)],
        };
        let (d0, d1) = (on_two_axes(Block), on_two_axes(Cyclic));
        check_dists::<false>(&d0, &d1, 6, &[(1, 2)]).unwrap();
    }

    /// A store whose box misses a point its rank owns: rank 1 of
    /// `X(10)` BLOCK over 2 owns `X(6:10)`, stored at `1:5`.
    fn short_store<const COLUMN_MAJOR: bool>() -> (ArrayDist, Store<COLUMN_MAJOR>) {
        (dist(&[10], &[(DistKind::Block, 0)], 2), Store::new(&[4]))
    }

    #[test]
    #[should_panic(expected = "owned subscripts 1..=5 outside the store's 1:4 (dim 0)")]
    fn scatter_into_a_store_missing_an_owned_point_panics() {
        let (d, mut store) = short_store::<false>();
        scatter_init(&mut store, &d, &[1.0; 10], 1);
    }

    #[test]
    #[should_panic(expected = "owned subscripts 1..=5 outside the store's 1:4 (dim 0)")]
    fn assembling_from_a_store_missing_an_owned_point_panics() {
        let (d, short) = short_store::<true>();
        let whole = Store::new(&[5]);
        assemble(&d, false, &[&whole, &short]);
    }

    #[test]
    #[should_panic(expected = "owned subscripts 1..=5 outside the store's 1:4 (dim 0)")]
    fn remapping_into_a_store_missing_an_owned_point_panics() {
        let (d0, old) = (
            dist(&[10], &[(DistKind::Cyclic, 0)], 2),
            Store::<false>::new(&[5]),
        );
        let (d1, short) = short_store::<false>();
        Remap::begin(&d0, &d1, 1, 2, &old, short, |_, _, _| {});
    }

    /// 0 to 2 overlap cells below and above one dimension.
    fn overlap_strategy() -> impl Strategy<Value = (i64, i64)> {
        (0i64..3, 0i64..3)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn remap_walks_agree_1d(
            n in 1i64..40, p in 1usize..7, a in dim_strategy(), b in dim_strategy(),
            o in overlap_strategy(),
        ) {
            check(&[n], &[a], &[b], p, &[o])?;
        }

        #[test]
        fn remap_walks_agree_2d(
            n in 1i64..12, m in 1i64..12, p in 1usize..7,
            a in (dim_strategy(), dim_strategy()), b in (dim_strategy(), dim_strategy()),
            o in (overlap_strategy(), overlap_strategy()),
        ) {
            check(&[n, m], &[a.0, a.1], &[b.0, b.1], p, &[o.0, o.1])?;
        }

        #[test]
        fn remap_walks_agree_3d(
            e in (1i64..6, 1i64..6, 1i64..6), p in 1usize..9,
            a in (dim_strategy(), dim_strategy(), dim_strategy()),
            b in (dim_strategy(), dim_strategy(), dim_strategy()),
            o in (overlap_strategy(), overlap_strategy(), overlap_strategy()),
        ) {
            check(&[e.0, e.1, e.2], &[a.0, a.1, a.2], &[b.0, b.1, b.2], p, &[o.0, o.1, o.2])?;
        }
    }
}
