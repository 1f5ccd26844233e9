//! Runtime shim linked into natively compiled SPMD node programs.
//!
//! The native backend (`fortrand_spmd::codegen`) pretty-prints a compiled
//! `SpmdProgram` as a standalone Rust source file and builds it with a
//! bare `rustc` invocation against this crate and `fortrand-rt`, each
//! compiled once to an `rlib` and cached. `fortrand-rt` is the run-time
//! library proper — scalars, distribution arithmetic, the ownership walks
//! and the remap routine, the same code the simulator engines run — and is
//! re-exported here whole, so an emitted program sees one `shim::`
//! namespace. This crate adds only what is native: thread-per-rank
//! execution over typed FIFO channels, rank-ordered collectives whose
//! payload handling matches the simulator's `CollCore` bit for bit,
//! column-major per-rank array storage, and the message-statistics
//! protocol the driver parses back into `RunStats`.
//!
//! Like `fortrand-rt` it is **std-only** — it is compiled outside cargo —
//! and a native run must agree with a simulated one on every
//! program-defined observable: message counts, byte volumes,
//! size-histogram buckets, per-tag tallies, and bit-identical
//! floating-point results (`tests/native.rs` at the workspace root).
//!
//! # Stats-on-stdout protocol (v1)
//!
//! The emitted program's only stdout traffic is this protocol:
//!
//! ```text
//! FORTRAND-NATIVE-STATS v1
//! nprocs <p>
//! print <line>                                  (rank 0's print output, in order)
//! node <rank> <msgs> <bytes> <remaps> <posts> <waits>
//! hist <rank> <b0> <b1> <b2> <b3> <b4>
//! tag <rank> <tag> <msgs> <bytes>
//! END
//! ```
//!
//! On a rank panic the program prints `FAIL rank=<r> msg=<message>` and
//! exits nonzero; final arrays travel separately through a little-endian
//! binary file (see [`drive`]).

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

pub use fortrand_rt::*;

/// Statement-level control flow of an emitted procedure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    Normal,
    Stop,
}

// ---------------------------------------------------------------------------
// Array storage
// ---------------------------------------------------------------------------

/// Array storage on one rank. Where the simulator's `ArrayStore` is
/// row-major (the VM's fused kernels stride it that way), this one is
/// column-major: emitted loops are the source program's Fortran loops,
/// whose stride-1 inner subscript is the first.
///
/// `Default` is an empty placeholder: the emitted code `mem::take`s hot
/// arrays out of the heap around compute-only loops (so the optimizer
/// sees non-aliasing locals) and moves them back afterwards.
#[derive(Clone, Debug, Default)]
pub struct Arr {
    pub bounds: Vec<(i64, i64)>,
    pub data: Vec<f64>,
    pub dist: u32,
    pub owner_dist: Option<u32>,
}

/// Out-of-line subscript-failure path: keeps the panic formatting out of
/// the hot access loops (same message the inline `assert!` produced).
#[cold]
#[inline(never)]
fn oob(x: i64, lo: i64, hi: i64, d: usize) -> ! {
    panic!("subscript {x} out of local bounds {lo}:{hi} (dim {d}) of array");
}

/// Degenerate-extent escape hatch: per-dim checks pass but the flat index
/// still misses the store (possible only with pathological bounds).
#[cold]
#[inline(never)]
fn bad_flat(f: usize, len: usize) -> ! {
    panic!("flat index {f} outside local store of {len} elements");
}

/// Whether all heap ids are pairwise distinct. The emitted code guards
/// loop localization with this: two formals bound to the same array must
/// fall back to through-the-heap access, not `take` the same slot twice.
pub fn all_distinct(ids: &[usize]) -> bool {
    ids.iter()
        .enumerate()
        .all(|(i, a)| ids[..i].iter().all(|b| b != a))
}

impl Arr {
    pub fn alloc(bounds: Vec<(i64, i64)>, dist: u32, owner_dist: Option<u32>) -> Arr {
        let len: i64 = bounds
            .iter()
            .map(|&(lo, hi)| (hi - lo + 1).max(0))
            .product();
        Arr {
            bounds,
            data: vec![0.0; len as usize],
            dist,
            owner_dist,
        }
    }

    /// Column-major (Fortran) flattening: the first subscript varies
    /// fastest, so the stride-1 inner loops of the source programs walk
    /// memory contiguously. Global wire/output buffers stay row-major;
    /// only this local storage order is Fortran.
    #[inline]
    fn flat(&self, subs: &[i64]) -> usize {
        debug_assert_eq!(subs.len(), self.bounds.len());
        let mut flat = 0usize;
        let mut mult = 1usize;
        for (d, &x) in subs.iter().enumerate() {
            let (lo, hi) = self.bounds[d];
            if x < lo || x > hi {
                oob(x, lo, hi, d);
            }
            flat += (x - lo) as usize * mult;
            mult *= (hi - lo + 1) as usize;
        }
        flat
    }
}

impl LocalStore for Arr {
    const COLUMN_MAJOR: bool = true;

    fn bounds(&self) -> &[(i64, i64)] {
        &self.bounds
    }

    fn data(&self) -> &[f64] {
        &self.data
    }

    fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    #[inline]
    fn get(&self, subs: &[i64]) -> f64 {
        let f = self.flat(subs);
        match self.data.get(f) {
            Some(v) => *v,
            None => bad_flat(f, self.data.len()),
        }
    }

    #[inline]
    fn set(&mut self, subs: &[i64], v: f64) {
        let f = self.flat(subs);
        let len = self.data.len();
        match self.data.get_mut(f) {
            Some(slot) => *slot = v,
            None => bad_flat(f, len),
        }
    }
}

/// Per-rank array heap. Allocation order is program order, so an id is
/// meaningful across ranks (the emitted program allocates identically on
/// every rank).
#[derive(Default)]
pub struct Heap {
    pub arrs: Vec<Arr>,
}

impl Heap {
    pub fn new() -> Heap {
        Heap::default()
    }

    pub fn alloc(&mut self, bounds: &[(i64, i64)], dist: u32, owner_dist: Option<u32>) -> usize {
        self.arrs
            .push(Arr::alloc(bounds.to_vec(), dist, owner_dist));
        self.arrs.len() - 1
    }

    #[inline]
    pub fn get(&self, id: usize, subs: &[i64]) -> f64 {
        self.arrs[id].get(subs)
    }

    #[inline]
    pub fn set(&mut self, id: usize, subs: &[i64], v: f64) {
        self.arrs[id].set(subs, v);
    }

    /// Current distribution governing ownership queries (`CurOwner`).
    pub fn cur_dist(&self, id: usize) -> u32 {
        let a = &self.arrs[id];
        a.owner_dist.unwrap_or(a.dist)
    }

    /// Packs a section into a message buffer (row-major order).
    pub fn gather(&self, id: usize, dims: &[(i64, i64, i64)]) -> Vec<f64> {
        let mut out = Vec::with_capacity(rect_len(dims));
        pack(&self.arrs[id], dims, &mut out);
        out
    }

    /// Unpacks a message buffer into a section (row-major order).
    pub fn scatter(&mut self, id: usize, dims: &[(i64, i64, i64)], data: &[f64]) {
        unpack(&mut self.arrs[id], dims, data);
    }

    /// Fills the local part of array `id` on rank `my` from a row-major
    /// global buffer. Run-time resolution storage is global-shaped and
    /// takes a full copy — unpacked like a message, since the buffer is
    /// row-major and the store is not.
    pub fn init(&mut self, id: usize, dists: &[ArrayDist], global: &[f64], my: usize) {
        let a = &mut self.arrs[id];
        if a.owner_dist.is_none() {
            return scatter_init(a, &dists[a.dist as usize], global, my);
        }
        let whole: Vec<(i64, i64, i64)> = a.bounds.iter().map(|&(lo, hi)| (lo, hi, 1)).collect();
        self.scatter(id, &whole, global);
    }
}

// ---------------------------------------------------------------------------
// Message statistics
// ---------------------------------------------------------------------------

/// Per-rank message tally: the slice of the simulator's `NodeStats` that
/// exists without a virtual clock (no times, flops or ops), recorded by
/// the same rule — a message is charged to its sender, a broadcast's
/// `p - 1` messages to the root — and printed by [`drive`].
#[derive(Clone, Debug, Default)]
pub struct Stats {
    pub msgs: u64,
    pub bytes: u64,
    pub remaps: u64,
    pub posts: u64,
    pub waits: u64,
    pub hist: [u64; HIST_BUCKETS],
    pub by_tag: BTreeMap<u64, (u64, u64)>,
}

impl Stats {
    pub fn record(&mut self, msgs: u64, bytes_each: u64, tag: Option<u64>) {
        self.msgs += msgs;
        self.bytes += msgs * bytes_each;
        self.hist[size_bucket(bytes_each)] += msgs;
        if let Some(t) = tag {
            let e = self.by_tag.entry(t).or_insert((0, 0));
            e.0 += msgs;
            e.1 += msgs * bytes_each;
        }
    }
}

// ---------------------------------------------------------------------------
// Communication fabric
// ---------------------------------------------------------------------------

type Payload = Arc<Vec<f64>>;
type Msg = (u64, Payload);

/// How long blocked ranks sleep between checks of the failure flag.
const POLL: Duration = Duration::from_millis(25);

/// Shared failure flag: set when any rank panics so blocked peers abort
/// instead of hanging (the native analog of the simulator's poison-proof
/// lock handling).
struct Poison {
    flag: AtomicBool,
}

impl Poison {
    fn set(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }
    fn check(&self) {
        if self.flag.load(Ordering::SeqCst) {
            panic!("peer rank failed");
        }
    }
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Sequence-keyed rendezvous table shared by all ranks: the root `put`s a
/// payload under a collective sequence number, every consumer `take`s it.
/// Per-rank sequence counters advance identically on every rank (the SPMD
/// program executes collectives in the same order everywhere), which gives
/// the same rank-ordered matching as the simulator's `CollCore`.
struct SeqTable {
    takes_per_entry: usize,
    inner: Mutex<HashMap<u64, (Payload, usize)>>,
    cv: Condvar,
}

impl SeqTable {
    fn new(takes_per_entry: usize) -> SeqTable {
        SeqTable {
            takes_per_entry,
            inner: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }

    fn put(&self, seq: u64, data: Payload) {
        lock_unpoisoned(&self.inner).insert(seq, (data, 0));
        self.cv.notify_all();
    }

    fn take(&self, seq: u64, poison: &Poison) -> Payload {
        let mut g = lock_unpoisoned(&self.inner);
        loop {
            poison.check();
            if let Some(entry) = g.get_mut(&seq) {
                entry.1 += 1;
                let out = entry.0.clone();
                if entry.1 >= self.takes_per_entry {
                    g.remove(&seq);
                }
                return out;
            }
            let (g2, _) = self
                .cv
                .wait_timeout(g, POLL)
                .unwrap_or_else(|p| p.into_inner());
            g = g2;
        }
    }
}

/// Per-rank execution context: channels, collectives, stats, posted-op
/// slots, and rank 0's print buffer.
pub struct Ctx {
    rank: usize,
    p: usize,
    /// Senders to every destination (`tx[dst]`); owned (not shared) so a
    /// dead rank's channels disconnect and wake its blocked peers.
    tx: Vec<Sender<Msg>>,
    /// Receivers from every source (`rx[src]`), strict FIFO per pair.
    rx: Vec<Receiver<Msg>>,
    coll: Arc<SeqTable>,
    posted: Arc<SeqTable>,
    poison: Arc<Poison>,
    coll_seq: u64,
    posted_seq: u64,
    posted_recv: Vec<Option<(usize, u64)>>,
    posted_bcast: Vec<Option<u64>>,
    pub stats: Stats,
    printed: Vec<String>,
}

impl Ctx {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn nprocs(&self) -> usize {
        self.p
    }

    /// Records a print line (rank 0 only; the emitted code already guards).
    pub fn print(&mut self, line: String) {
        if self.rank == 0 {
            self.printed.push(line);
        }
    }

    /// Blocking send: charged at the sender like the simulator's
    /// `send_buf` (1 message of `len * 8` bytes under `tag`).
    pub fn send(&mut self, dst: usize, tag: u64, data: Vec<f64>) {
        self.stats.record(1, data.len() as u64 * 8, Some(tag));
        self.tx[dst]
            .send((tag, Arc::new(data)))
            .unwrap_or_else(|_| panic!("send to dead rank {dst}"));
    }

    /// Blocking receive: strict FIFO per (src, dst) pair with a tag
    /// assertion, exactly like the simulator's threaded mailboxes.
    pub fn recv(&mut self, src: usize, tag: u64) -> Payload {
        loop {
            match self.rx[src].recv_timeout(POLL) {
                Ok((t, data)) => {
                    assert_eq!(t, tag, "tag mismatch on message from rank {src}");
                    return data;
                }
                Err(RecvTimeoutError::Timeout) => self.poison.check(),
                Err(RecvTimeoutError::Disconnected) => {
                    self.poison.check();
                    panic!("rank {src} terminated with messages outstanding");
                }
            }
        }
    }

    /// Rank-ordered broadcast. Payload identity matches `CollCore`: every
    /// rank (root included) reads the root's exact buffer, so FP contents
    /// are bit-identical; only the root records message charges
    /// (`p - 1` messages). Single-rank worlds bypass the fabric entirely.
    pub fn bcast(&mut self, root: usize, data: Option<Vec<f64>>, tag: u64) -> Payload {
        let seq = self.coll_seq;
        self.coll_seq += 1;
        if self.p == 1 {
            return Arc::new(data.expect("bcast root without payload"));
        }
        if self.rank == root {
            let payload = Arc::new(data.expect("bcast root without payload"));
            self.stats
                .record(self.p as u64 - 1, payload.len() as u64 * 8, Some(tag));
            self.coll.put(seq, payload.clone());
            payload
        } else {
            self.coll.take(seq, &self.poison)
        }
    }

    /// Nonblocking send: the payload leaves (and is charged) at the post.
    pub fn post_send(&mut self, dst: usize, tag: u64, data: Vec<f64>) {
        self.stats.posts += 1;
        self.send(dst, tag, data);
        // `send` recorded the message; posts are tracked separately.
    }

    pub fn wait_send(&mut self) {
        self.stats.waits += 1;
    }

    /// Registers a posted receive under `handle` (matched at the wait).
    pub fn post_recv(&mut self, handle: u32, src: usize, tag: u64) {
        self.stats.posts += 1;
        *slot(&mut self.posted_recv, handle) = Some((src, tag));
    }

    pub fn wait_recv(&mut self, handle: u32) -> Payload {
        let (src, tag) = slot(&mut self.posted_recv, handle)
            .take()
            .expect("wait_recv without matching post");
        self.stats.waits += 1;
        self.recv(src, tag)
    }

    /// Nonblocking broadcast post: every rank advances the posted
    /// sequence; the root publishes (and is charged for) the payload
    /// immediately, like the simulator's `post_bcast`.
    pub fn post_bcast(&mut self, handle: u32, root: usize, data: Option<Vec<f64>>, tag: u64) {
        let seq = self.posted_seq;
        self.posted_seq += 1;
        self.stats.posts += 1;
        if self.rank == root {
            let payload = Arc::new(data.expect("post_bcast root without payload"));
            if self.p > 1 {
                self.stats
                    .record(self.p as u64 - 1, payload.len() as u64 * 8, Some(tag));
            }
            self.posted.put(seq, payload);
        }
        *slot(&mut self.posted_bcast, handle) = Some(seq);
    }

    pub fn wait_bcast(&mut self, handle: u32) -> Payload {
        let seq = slot(&mut self.posted_bcast, handle)
            .take()
            .expect("wait_bcast without matching post");
        self.stats.waits += 1;
        self.posted.take(seq, &self.poison)
    }
}

// ---------------------------------------------------------------------------
// Remap library routines: `fortrand_rt::Remap` over this rank's channels
// ---------------------------------------------------------------------------

/// Full dynamic remap with data motion (§6 library routine). Always
/// charges one remap call; data moves only when the distribution changes.
pub fn remap(cx: &mut Ctx, h: &mut Heap, id: usize, dists: &[ArrayDist], to_dist: u32) {
    cx.stats.remaps += 1;
    let from = h.arrs[id].dist;
    if from == to_dist {
        return;
    }
    let (d0, d1) = (&dists[from as usize], &dists[to_dist as usize]);
    let new = Arr::alloc(d1.local_bounds_like(&h.arrs[id].bounds, d0), to_dist, None);
    let (my, p) = (cx.rank(), cx.nprocs());
    let send = |dst, tag, buf| cx.send(dst, tag, buf);
    let walk = Remap::begin(d0, d1, my, p, &h.arrs[id], new, send);
    receive(cx, walk, d1, &mut h.arrs[id]);
}

/// Run-time resolution remap: storage stays global-shaped; authoritative
/// values move from old owners to new owners in place.
pub fn remap_global(cx: &mut Ctx, h: &mut Heap, id: usize, dists: &[ArrayDist], to_dist: u32) {
    cx.stats.remaps += 1;
    let from = h.arrs[id]
        .owner_dist
        .expect("remap_global on non-rtr array");
    if from == to_dist {
        return;
    }
    let (d0, d1) = (&dists[from as usize], &dists[to_dist as usize]);
    let (my, p) = (cx.rank(), cx.nprocs());
    let send = |dst, tag, buf| cx.send(dst, tag, buf);
    let walk = Remap::begin_global(d0, d1, my, p, &h.arrs[id], send);
    receive(cx, walk, d1, &mut h.arrs[id]);
    h.arrs[id].owner_dist = Some(to_dist);
}

/// Second half of a remap: a blocking receive per source, in rank order.
fn receive(cx: &mut Ctx, mut walk: Remap<Arr>, d1: &ArrayDist, store: &mut Arr) {
    while let Some((src, tag)) = walk.expects() {
        let data = cx.recv(src, tag);
        walk.accept(d1, &data, store);
    }
    walk.finish(store);
}

/// Array-kill optimized remap (§6.3): swap descriptors, zero contents, no
/// data motion and no remap charge. The overlap cells stay.
pub fn mark_dist(h: &mut Heap, id: usize, dists: &[ArrayDist], to_dist: u32) {
    let old = &h.arrs[id];
    let (d0, d1) = (&dists[old.dist as usize], &dists[to_dist as usize]);
    h.arrs[id] = Arr::alloc(d1.local_bounds_like(&old.bounds, d0), to_dist, None);
}

/// Assembles the global contents of each final array (same position in
/// every rank's finals vector), reading each element from its owner under
/// the array's final distribution.
fn assemble_finals(dists: &[ArrayDist], per_rank: &[Vec<Arr>]) -> Vec<Vec<f64>> {
    let Some(rank0) = per_rank.first() else {
        return Vec::new();
    };
    let mut stores = Vec::with_capacity(per_rank.len());
    rank0
        .iter()
        .enumerate()
        .map(|(idx, fa)| {
            let dist = &dists[fa.owner_dist.unwrap_or(fa.dist) as usize];
            stores.clear();
            stores.extend(per_rank.iter().map(|finals| &finals[idx]));
            let same = |a: &&Arr| (a.dist, a.owner_dist) == (fa.dist, fa.owner_dist);
            debug_assert!(stores.iter().all(same), "finals out of order");
            assemble(dist, fa.owner_dist.is_some(), &stores)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Harness: thread-per-rank driver + binary IO + stats protocol
// ---------------------------------------------------------------------------

struct PanicGuard(Arc<Poison>);

impl Drop for PanicGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.set();
        }
    }
}

fn read_init(path: &str) -> Vec<Option<Vec<f64>>> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let present = bytes[at];
        at += 1;
        if present == 0 {
            out.push(None);
            continue;
        }
        let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        at += 8;
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(f64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()));
            at += 8;
        }
        out.push(Some(data));
    }
    out
}

fn write_out(path: &str, arrays: &[Vec<f64>]) {
    let mut bytes = Vec::new();
    for a in arrays {
        bytes.extend_from_slice(&(a.len() as u64).to_le_bytes());
        for v in a {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    std::fs::write(path, bytes).unwrap_or_else(|e| panic!("writing {path}: {e}"));
}

/// Entry point of an emitted node program. Reads the init file
/// (`argv[1]`), runs `body` once per rank on its own thread, assembles
/// the final global arrays into the out file (`argv[2]`), and prints the
/// stats protocol on stdout. A rank panic prints a `FAIL` line and exits
/// nonzero; blocked peers are woken through the shared failure flag.
pub fn drive<F>(p: usize, dists: &[ArrayDist], body: F) -> !
where
    F: Fn(&mut Ctx, &[Option<Vec<f64>>]) -> Vec<Arr> + Sync,
{
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: {} <init.bin> <out.bin>", args[0]);
        std::process::exit(2);
    }
    let init = read_init(&args[1]);

    let poison = Arc::new(Poison {
        flag: AtomicBool::new(false),
    });
    // Blocking broadcasts: the root never `take`s its own entry, so each
    // payload is consumed p - 1 times. Posted broadcasts: every rank waits.
    let coll = Arc::new(SeqTable::new(p.saturating_sub(1).max(1)));
    let posted = Arc::new(SeqTable::new(p));

    let mut txs: Vec<Vec<Sender<Msg>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    let mut rxs: Vec<Vec<Receiver<Msg>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
    for tx_row in txs.iter_mut() {
        for rx_row in rxs.iter_mut() {
            let (tx, rx) = mpsc::channel();
            tx_row.push(tx);
            rx_row.push(rx);
        }
    }

    type RankResult = Result<(Vec<Arr>, Vec<String>, Stats), String>;
    let mut results: Vec<RankResult> = Vec::with_capacity(p);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(p);
        for (rank, (tx, rx)) in txs.drain(..).zip(rxs.drain(..)).enumerate() {
            let poison = poison.clone();
            let coll = coll.clone();
            let posted = posted.clone();
            let body = &body;
            let init = &init;
            handles.push(s.spawn(move || {
                let _guard = PanicGuard(poison.clone());
                let mut cx = Ctx {
                    rank,
                    p,
                    tx,
                    rx,
                    coll,
                    posted,
                    poison,
                    coll_seq: 0,
                    posted_seq: 0,
                    posted_recv: Vec::new(),
                    posted_bcast: Vec::new(),
                    stats: Stats::default(),
                    printed: Vec::new(),
                };
                let finals = body(&mut cx, init);
                (finals, cx.printed, cx.stats)
            }));
        }
        for h in handles {
            results.push(h.join().map_err(|e| panic_message(e.as_ref())));
        }
    });

    if results.iter().any(|r| r.is_err()) {
        // Report the lowest rank whose panic was genuine (not induced by a
        // peer's death), falling back to the lowest failing rank.
        let induced = |m: &str| m.contains("peer rank failed") || m.contains("terminated with");
        let pick = results
            .iter()
            .enumerate()
            .filter_map(|(r, res)| res.as_ref().err().map(|m| (r, m.clone())))
            .find(|(_, m)| !induced(m))
            .or_else(|| {
                results
                    .iter()
                    .enumerate()
                    .find_map(|(r, res)| res.as_ref().err().map(|m| (r, m.clone())))
            })
            .unwrap();
        let msg = pick.1.replace('\n', "; ");
        println!("FAIL rank={} msg={}", pick.0, msg);
        std::process::exit(101);
    }

    let mut finals = Vec::with_capacity(p);
    let mut per_rank = Vec::with_capacity(p);
    for (fin, printed, stats) in results.into_iter().map(Result::unwrap) {
        finals.push(fin);
        per_rank.push((printed, stats));
    }
    write_out(&args[2], &assemble_finals(dists, &finals));

    println!("FORTRAND-NATIVE-STATS v1");
    println!("nprocs {p}");
    for line in &per_rank[0].0 {
        println!("print {line}");
    }
    for (rank, (_, st)) in per_rank.iter().enumerate() {
        println!(
            "node {rank} {} {} {} {} {}",
            st.msgs, st.bytes, st.remaps, st.posts, st.waits
        );
        let hist: Vec<String> = st.hist.iter().map(u64::to_string).collect();
        println!("hist {rank} {}", hist.join(" "));
        for (tag, (m, b)) in &st.by_tag {
            println!("tag {rank} {tag} {m} {b}");
        }
    }
    println!("END");
    std::process::exit(0);
}
