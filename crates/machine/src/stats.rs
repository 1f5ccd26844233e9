//! Execution statistics.

use std::collections::BTreeMap;

pub use fortrand_rt::{size_bucket, HIST_BUCKETS};

/// Human-readable labels for the histogram buckets, aligned with
/// [`size_bucket`].
pub const HIST_LABELS: [&str; HIST_BUCKETS] = ["<=64B", "<=512B", "<=4KB", "<=32KB", ">32KB"];

/// Statistics for one simulated node.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Final virtual clock (µs).
    pub time_us: f64,
    /// Messages sent by this node.
    pub msgs_sent: u64,
    /// Bytes sent by this node.
    pub bytes_sent: u64,
    /// Floating-point operations charged.
    pub flops: u64,
    /// Scalar/control operations charged (incl. ownership tests).
    pub ops: u64,
    /// Remap library calls charged.
    pub remaps: u64,
    /// Time spent blocked waiting for messages (µs) — idle time.
    pub wait_us: f64,
    /// Message-size histogram over everything this node sent (point-to-point
    /// sends and the attributed messages of collectives alike).
    pub msg_hist: [u64; HIST_BUCKETS],
    /// `(messages, bytes)` per tag, for attributing message classes (e.g.
    /// plain vs. coalesced broadcasts) in `tables` output. Point-to-point
    /// sends always record under their tag; collectives only when the
    /// caller supplies one ([`crate::Node::bcast_tagged`]).
    pub msgs_by_tag: BTreeMap<u64, (u64, u64)>,
    /// Nonblocking operations posted by this node (sends + broadcasts).
    pub overlap_posts: u64,
    /// Completion waits executed by this node.
    pub overlap_waits: u64,
    /// µs of communication latency overlapped with compute: time the
    /// matching *blocking* operation would have stalled this node beyond
    /// what the posted form did.
    pub overlap_hidden_us: f64,
}

impl NodeStats {
    /// Records `msgs` messages of `bytes_each` payload bytes, optionally
    /// attributed to `tag`.
    pub(crate) fn record_msgs(&mut self, msgs: u64, bytes_each: u64, tag: Option<u64>) {
        self.msgs_sent += msgs;
        self.bytes_sent += msgs * bytes_each;
        self.msg_hist[size_bucket(bytes_each)] += msgs;
        if let Some(t) = tag {
            let e = self.msgs_by_tag.entry(t).or_insert((0, 0));
            e.0 += msgs;
            e.1 += msgs * bytes_each;
        }
    }
}

/// Aggregated statistics of one program run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Program execution time: max over nodes of the final clock (µs).
    pub time_us: f64,
    /// Total messages across all nodes.
    pub total_msgs: u64,
    /// Total bytes across all nodes.
    pub total_bytes: u64,
    /// Total flops across all nodes.
    pub total_flops: u64,
    /// Total scalar ops across all nodes.
    pub total_ops: u64,
    /// Total remap library calls.
    pub total_remaps: u64,
    /// Message-size histogram summed across nodes.
    pub msg_hist: [u64; HIST_BUCKETS],
    /// `(messages, bytes)` per tag summed across nodes.
    pub msgs_by_tag: BTreeMap<u64, (u64, u64)>,
    /// Nonblocking operations posted, summed across nodes.
    pub overlap_posts: u64,
    /// Completion waits executed, summed across nodes.
    pub overlap_waits: u64,
    /// µs of communication latency hidden behind compute, summed across
    /// nodes (see [`NodeStats::overlap_hidden_us`]).
    pub overlap_hidden_us: f64,
    /// Per-node detail.
    pub per_node: Vec<NodeStats>,
    /// Real (host) wall-clock time of `Machine::run`, in µs. Unlike the
    /// simulated metrics above this is *not* deterministic; it measures the
    /// execution engine itself, not the modeled machine.
    pub wall_us: f64,
    /// Bytecode-engine instructions retired across all ranks (0 for the
    /// tree engine and for raw `Machine::run` bodies).
    pub engine_instrs: u64,
    /// Bytecode-engine dispatches *saved* by superinstruction fusion:
    /// constituent instructions retired inside fused kernels and scalar
    /// superinstructions rather than individually dispatched. Fusion
    /// coverage is `fused_instrs / (engine_instrs + fused_instrs)`.
    pub fused_instrs: u64,
    /// Per-opcode dynamic dispatch counts of the bytecode engine, summed
    /// across ranks; only opcodes with nonzero counts appear. Sums to
    /// `engine_instrs`. Empty for the tree engine.
    pub instr_mix: Vec<(String, u64)>,
    /// Message buffers taken from the [`crate::BufferPool`] free list
    /// instead of allocated. Thread-interleaving dependent: which rank's
    /// drop races which rank's acquire varies run to run.
    pub pool_reuses: u64,
    /// Message buffers that had to be allocated (pool misses).
    pub pool_allocs: u64,
    /// Bytes of buffer capacity served from the pool free list.
    pub pool_bytes_reused: u64,
    /// Event-machine scheduler: task dispatches (calls of a rank's
    /// `step`). 0 under the threaded machine.
    pub sched_switches: u64,
    /// Event-machine scheduler: point-to-point messages routed through
    /// the mailboxes. 0 under the threaded machine.
    pub sched_msgs: u64,
    /// Event-machine scheduler: peak simultaneously-runnable ranks.
    pub sched_ready_peak: u64,
    /// Event-machine scheduler: peak undelivered messages queued across
    /// all mailboxes, counting pending collective contributions and
    /// in-flight posted broadcasts (held by the rendezvous / posted table
    /// until delivered) alongside point-to-point mailbox messages.
    pub sched_queue_peak: u64,
}

impl RunStats {
    /// Folds per-node statistics into a run summary.
    pub fn aggregate(per_node: Vec<NodeStats>) -> Self {
        let mut s = RunStats {
            per_node,
            ..Default::default()
        };
        for n in &s.per_node {
            s.time_us = s.time_us.max(n.time_us);
            s.total_msgs += n.msgs_sent;
            s.total_bytes += n.bytes_sent;
            s.total_flops += n.flops;
            s.total_ops += n.ops;
            s.total_remaps += n.remaps;
            for (b, c) in n.msg_hist.iter().enumerate() {
                s.msg_hist[b] += c;
            }
            for (&t, &(m, by)) in &n.msgs_by_tag {
                let e = s.msgs_by_tag.entry(t).or_insert((0, 0));
                e.0 += m;
                e.1 += by;
            }
            s.overlap_posts += n.overlap_posts;
            s.overlap_waits += n.overlap_waits;
            s.overlap_hidden_us += n.overlap_hidden_us;
        }
        s
    }

    /// Program time in milliseconds (convenience for reports).
    pub fn time_ms(&self) -> f64 {
        self.time_us / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_takes_max_time_and_sums_counters() {
        let a = NodeStats {
            time_us: 10.0,
            msgs_sent: 2,
            bytes_sent: 16,
            flops: 5,
            ..Default::default()
        };
        let b = NodeStats {
            time_us: 30.0,
            msgs_sent: 1,
            bytes_sent: 8,
            flops: 7,
            ..Default::default()
        };
        let s = RunStats::aggregate(vec![a, b]);
        assert_eq!(s.time_us, 30.0);
        assert_eq!(s.total_msgs, 3);
        assert_eq!(s.total_bytes, 24);
        assert_eq!(s.total_flops, 12);
        assert_eq!(s.per_node.len(), 2);
    }

    #[test]
    fn empty_aggregate_is_zero() {
        let s = RunStats::aggregate(vec![]);
        assert_eq!(s.time_us, 0.0);
        assert_eq!(s.total_msgs, 0);
    }

    #[test]
    fn size_buckets_partition_sizes() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(64), 0);
        assert_eq!(size_bucket(65), 1);
        assert_eq!(size_bucket(512), 1);
        assert_eq!(size_bucket(4096), 2);
        assert_eq!(size_bucket(32768), 3);
        assert_eq!(size_bucket(32769), 4);
    }

    #[test]
    fn record_msgs_fills_histogram_and_tags() {
        let mut n = NodeStats::default();
        n.record_msgs(3, 8, Some(7));
        n.record_msgs(1, 1000, None);
        assert_eq!(n.msgs_sent, 4);
        assert_eq!(n.bytes_sent, 3 * 8 + 1000);
        assert_eq!(n.msg_hist[0], 3);
        assert_eq!(n.msg_hist[2], 1);
        assert_eq!(n.msgs_by_tag.get(&7), Some(&(3, 24)));
        let s = RunStats::aggregate(vec![n.clone(), n]);
        assert_eq!(s.msg_hist[0], 6);
        assert_eq!(s.msgs_by_tag.get(&7), Some(&(6, 48)));
    }
}
