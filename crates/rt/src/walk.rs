//! The ownership walks: initial scatter, final assembly and the dynamic
//! remap of §6, written once over a [`LocalStore`] accessor and a `send`
//! callback. Every walk enumerates global points in row-major order, so a
//! message's payload order is the same on the sending and the receiving
//! rank and on every back end.

use crate::dist::ArrayDist;
use crate::space::{in_bounds, rect_for_each, rect_len, RowMajor};
use crate::REMAP_TAG_BASE;

/// One rank's storage of one array as the library routines see it: a box
/// of per-dimension bounds and an element accessor. The layout behind
/// `get`/`set` is the back end's own (row-major in the simulator,
/// column-major in native node programs).
pub trait LocalStore {
    /// Per-dimension `(lo, hi)` subscript bounds.
    fn bounds(&self) -> &[(i64, i64)];
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

/// Visits every point of `shape` that `my` owns under `dist`, in row-major
/// order, with its flat index.
fn for_each_owned(dist: &ArrayDist, shape: &RowMajor, my: usize, mut f: impl FnMut(&[i64], usize)) {
    let full: Vec<(i64, i64, i64)> = shape.extents.iter().map(|&e| (1, e, 1)).collect();
    let mut flat = 0usize;
    rect_for_each(&full, |pt| {
        if dist.owner_of(pt) == my {
            f(pt, flat);
        }
        flat += 1;
    });
}

/// Fills the local part of `store` (distributed as `dist` on rank `my`)
/// from a row-major global buffer. Replicated (serial) dimensions store on
/// every rank; distributed dimensions only on the owner. Run-time
/// resolution storage is the caller's business (a full copy).
///
/// O(local): walks only this rank's owned lattice instead of
/// ownership-testing every global point (O(p · global) aggregate —
/// prohibitive at p ≥ 1024), except under multi-processor `BLOCK_CYCLIC`,
/// whose owned set is not one lattice.
pub fn scatter_init<S: LocalStore>(store: &mut S, dist: &ArrayDist, global: &[f64], my: usize) {
    let shape = RowMajor::new(dist.global_extents());
    assert_eq!(
        shape.total as usize,
        global.len(),
        "initial data size mismatch"
    );
    let mut local = vec![0i64; shape.extents.len()];
    let mut put = |pt: &[i64], flat: usize| {
        dist.local_of_global_into(pt, &mut local);
        // Overlap bounds cannot exclude an owned point; stay defensive.
        if in_bounds(&local, store.bounds()) {
            store.set(&local, global[flat]);
        }
    };
    match dist.owned_ranges(my) {
        Some(ranges) => rect_for_each(&ranges, |pt| put(pt, shape.encode(pt) as usize)),
        None => for_each_owned(dist, &shape, my, put),
    }
}

/// Assembles the row-major global contents of an array from its final
/// stores, `per_rank[r]` being rank `r`'s, reading each element from its
/// owner under `dist`. `global_indexed` storage (run-time resolution) is
/// subscripted by the global point, any other by the owner's local
/// indices. Points outside the owner's store read as zero.
pub fn assemble<S: LocalStore>(
    dist: &ArrayDist,
    global_indexed: bool,
    per_rank: &[&S],
) -> Vec<f64> {
    let shape = RowMajor::new(dist.global_extents());
    let full: Vec<(i64, i64, i64)> = shape.extents.iter().map(|&e| (1, e, 1)).collect();
    let mut global = Vec::with_capacity(shape.total as usize);
    let mut local = vec![0i64; shape.extents.len()];
    rect_for_each(&full, |pt| {
        let src = per_rank[dist.owner_of(pt)];
        let subs = if global_indexed {
            pt
        } else {
            dist.local_of_global_into(pt, &mut local);
            &local
        };
        global.push(if in_bounds(subs, src.bounds()) {
            src.get(subs)
        } else {
            0.0
        });
    });
    global
}

/// The sending side of a remap `d0 → d1` on rank `my`: every global point
/// `my` owns under `d0`, in row-major order, with its owner under `d1`
/// (`my` itself for the points it keeps).
pub fn remap_outgoing(d0: &ArrayDist, d1: &ArrayDist, my: usize, mut f: impl FnMut(&[i64], usize)) {
    let shape = RowMajor::new(d0.global_extents());
    assert_eq!(
        shape.extents,
        d1.global_extents(),
        "remap changes array shape"
    );
    for_each_owned(d0, &shape, my, |pt, _| f(pt, d1.owner_of(pt)));
}

/// The receiving side of a remap `d0 → d1` on rank `my`: per old owner
/// `src != my`, the flat row-major indices of the points `my` owns under
/// `d1` and `src` owned under `d0`, in row-major order — the order
/// [`remap_outgoing`] lists them in on `src`.
pub fn remap_incoming(d0: &ArrayDist, d1: &ArrayDist, my: usize, nprocs: usize) -> Vec<Vec<i64>> {
    let shape = RowMajor::new(d1.global_extents());
    let mut incoming = vec![Vec::new(); nprocs];
    for_each_owned(d1, &shape, my, |pt, flat| {
        let src = d0.owner_of(pt);
        if src != my {
            incoming[src].push(flat as i64);
        }
    });
    incoming
}

/// A dynamic remap (library routine of §6) of one array on one rank,
/// between its two halves. The first half ([`Remap::begin`],
/// [`Remap::begin_global`]) enumerates the array, sends everything this
/// rank has to send through the `send` callback and lists what it will be
/// sent; it never blocks. The second half takes one source's message at a
/// time ([`Remap::expects`] / [`Remap::accept`]) — receiving it is the
/// routine's only blocking point and stays with the caller, which may
/// block in place or suspend between sources. Charging the remap call is
/// the caller's too; the routine only moves data.
pub struct Remap<S> {
    /// The store being filled under the new distribution; `None` under
    /// run-time resolution, whose global-shaped storage is updated in
    /// place and subscripted by the global point.
    new: Option<S>,
    shape: RowMajor,
    my: usize,
    /// Per source, the points its message carries ([`remap_incoming`]).
    incoming: Vec<Vec<i64>>,
    /// The source accepted next.
    src: usize,
}

impl<S: LocalStore> Remap<S> {
    /// First half of a full remap on rank `my` of `nprocs`: moves the
    /// contents of `old` (distributed as `d0`) towards `new`, a fresh
    /// store of `d1`'s local extents. Kept points are copied directly.
    pub fn begin(
        d0: &ArrayDist,
        d1: &ArrayDist,
        my: usize,
        nprocs: usize,
        old: &S,
        mut new: S,
        send: impl FnMut(usize, u64, Vec<f64>),
    ) -> Remap<S> {
        let mut outgoing: Vec<Vec<f64>> = vec![Vec::new(); nprocs];
        let mut from = vec![0i64; d0.rank()];
        let mut to = vec![0i64; d0.rank()];
        remap_outgoing(d0, d1, my, |pt, dst| {
            d0.local_of_global_into(pt, &mut from);
            let v = old.get(&from);
            if dst == my {
                d1.local_of_global_into(pt, &mut to);
                new.set(&to, v);
            } else {
                outgoing[dst].push(v);
            }
        });
        Remap::post(d0, d1, my, nprocs, Some(new), outgoing, send)
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
        let mut outgoing: Vec<Vec<f64>> = vec![Vec::new(); nprocs];
        remap_outgoing(d0, d1, my, |pt, dst| {
            if dst != my {
                outgoing[dst].push(store.get(pt));
            }
        });
        Remap::post(d0, d1, my, nprocs, None, outgoing, send)
    }

    /// Sends `outgoing[dst]` to every `dst` it is non-empty for, in rank
    /// order, then lists what this rank will be sent.
    fn post(
        d0: &ArrayDist,
        d1: &ArrayDist,
        my: usize,
        nprocs: usize,
        new: Option<S>,
        outgoing: Vec<Vec<f64>>,
        mut send: impl FnMut(usize, u64, Vec<f64>),
    ) -> Remap<S> {
        for (dst, buf) in outgoing.into_iter().enumerate() {
            if dst != my && !buf.is_empty() {
                send(dst, REMAP_TAG_BASE + dst as u64, buf);
            }
        }
        Remap {
            new,
            shape: RowMajor::new(d1.global_extents()),
            my,
            incoming: remap_incoming(d0, d1, my, nprocs),
            src: 0,
        }
    }

    /// The next source that sends this rank anything and the tag its
    /// message carries; `None` once every message has been accepted.
    pub fn expects(&mut self) -> Option<(usize, u64)> {
        while self.incoming.get(self.src)?.is_empty() {
            self.src += 1;
        }
        Some((self.src, REMAP_TAG_BASE + self.my as u64))
    }

    /// Unpacks the message of the source [`Remap::expects`] named. `store`
    /// is the array being remapped, `d1` its new distribution.
    pub fn accept(&mut self, d1: &ArrayDist, data: &[f64], store: &mut S) {
        let flats = &self.incoming[self.src];
        assert_eq!(data.len(), flats.len(), "remap message size mismatch");
        let mut pt = vec![0i64; self.shape.extents.len()];
        let mut local = vec![0i64; pt.len()];
        for (&flat, &v) in flats.iter().zip(data) {
            self.shape.decode_into(flat, &mut pt);
            match &mut self.new {
                Some(new) => {
                    d1.local_of_global_into(&pt, &mut local);
                    new.set(&local, v);
                }
                None => store.set(&pt, v),
            }
        }
        self.src += 1;
    }

    /// Every message is in: a full remap replaces `store` with the new one.
    pub fn finish(self, store: &mut S) {
        if let Some(new) = self.new {
            *store = new;
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::dist::{DimPartition, DistKind, ProcGrid};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A row-major box of `f64`s.
    struct Store {
        bounds: Vec<(i64, i64)>,
        data: Vec<f64>,
    }

    impl Store {
        fn new(extents: &[i64]) -> Store {
            Store {
                bounds: extents.iter().map(|&e| (1, e)).collect(),
                data: vec![0.0; extents.iter().product::<i64>() as usize],
            }
        }
        fn flat(&self, subs: &[i64]) -> usize {
            assert!(in_bounds(subs, &self.bounds), "{subs:?} out of bounds");
            RowMajor::new(self.bounds.iter().map(|&(_, hi)| hi).collect()).encode(subs) as usize
        }
    }

    impl LocalStore for Store {
        fn bounds(&self) -> &[(i64, i64)] {
            &self.bounds
        }
        fn get(&self, subs: &[i64]) -> f64 {
            self.data[self.flat(subs)]
        }
        fn set(&mut self, subs: &[i64], v: f64) {
            let f = self.flat(subs);
            self.data[f] = v;
        }
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

    /// `d0 → d1` on every rank: the two enumerations agree message by
    /// message, and both remap routines leave every element with its new
    /// owner.
    fn check(extents: &[i64], dims0: &[Dim], dims1: &[Dim], p: usize) -> Result<(), TestCaseError> {
        let (d0, d1) = (dist(extents, dims0, p), dist(extents, dims1, p));
        let shape = RowMajor::new(extents.to_vec());

        // What each rank keeps or sends, as flat indices per destination.
        let mut seen = vec![0u32; shape.total as usize];
        let mut outgoing: Vec<Vec<Vec<i64>>> = Vec::new();
        for src in 0..p {
            let mut by_dst = vec![Vec::new(); p];
            remap_outgoing(&d0, &d1, src, |pt, dst| {
                let flat = shape.encode(pt);
                seen[flat as usize] += 1;
                by_dst[dst].push(flat);
            });
            outgoing.push(by_dst);
        }
        prop_assert!(
            seen.iter().all(|&n| n == 1),
            "a point is kept or sent exactly once"
        );
        for dst in 0..p {
            let incoming = remap_incoming(&d0, &d1, dst, p);
            prop_assert!(incoming[dst].is_empty());
            for src in (0..p).filter(|&s| s != dst) {
                // Same points, same order, and that order is row-major.
                prop_assert_eq!(&outgoing[src][dst], &incoming[src], "{} -> {}", src, dst);
                prop_assert!(incoming[src].windows(2).all(|w| w[0] < w[1]));
            }
        }

        // The routines themselves, all ranks in lock step over a mailbox.
        for global_indexed in [false, true] {
            let value = |flat: usize| flat as f64 + 0.5;
            let global: Vec<f64> = (0..shape.total as usize).map(value).collect();
            let local_extents = |d: &ArrayDist| {
                if global_indexed {
                    extents.to_vec()
                } else {
                    d.local_extents()
                }
            };
            let mut mail: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
            let mut ranks: Vec<(Remap<Store>, Store)> = Vec::new();
            for my in 0..p {
                let mut old = Store::new(&local_extents(&d0));
                let send = |dst: usize, tag: u64, buf: Vec<f64>| {
                    assert_eq!(tag, REMAP_TAG_BASE + dst as u64);
                    assert!(mail.insert((my, dst), buf).is_none());
                };
                if global_indexed {
                    // Every rank holds the whole box; only what it owns is
                    // authoritative.
                    for_each_owned(&d0, &shape, my, |pt, flat| old.set(pt, global[flat]));
                    let remap = Remap::begin_global(&d0, &d1, my, p, &old, send);
                    ranks.push((remap, old));
                } else {
                    scatter_init(&mut old, &d0, &global, my);
                    let new = Store::new(&local_extents(&d1));
                    let remap = Remap::begin(&d0, &d1, my, p, &old, new, send);
                    ranks.push((remap, old));
                }
            }
            let mut stores: Vec<Store> = Vec::new();
            for (my, (mut remap, mut store)) in ranks.into_iter().enumerate() {
                while let Some((src, tag)) = remap.expects() {
                    prop_assert_eq!(tag, REMAP_TAG_BASE + my as u64);
                    let data = mail.remove(&(src, my)).expect("expected message was sent");
                    remap.accept(&d1, &data, &mut store);
                }
                remap.finish(&mut store);
                stores.push(store);
            }
            prop_assert!(mail.is_empty(), "every message sent is expected");
            let stores: Vec<&Store> = stores.iter().collect();
            prop_assert_eq!(assemble(&d1, global_indexed, &stores), global);
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn remap_walks_agree_1d(
            n in 1i64..40, p in 1usize..7, a in dim_strategy(), b in dim_strategy(),
        ) {
            check(&[n], &[a], &[b], p)?;
        }

        #[test]
        fn remap_walks_agree_2d(
            n in 1i64..12, m in 1i64..12, p in 1usize..7,
            a in (dim_strategy(), dim_strategy()), b in (dim_strategy(), dim_strategy()),
        ) {
            check(&[n, m], &[a.0, a.1], &[b.0, b.1], p)?;
        }
    }
}
