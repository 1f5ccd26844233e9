//! Summaries of timing samples: median, quartiles, sample count and the
//! highest percentile that still has ten samples beyond it.
//!
//! The value reported for a wall-clock timing is its 10th percentile, not
//! its median. The hosts this runs on slow down by half for seconds to
//! minutes at a time (a neighbour on the same core: iterations of one
//! pinned process read 83 ms or 126 ms, nothing between), so a median says
//! which mode filled more of the run. Over ten 15 s runs in a disturbed
//! hour the run-to-run spread of dgefa's source → arrays time was 21 % for
//! the median, 7.4 % for the lower quartile, 2.4 % for the 10th percentile
//! and 1.3 % for the minimum; the 10th percentile keeps to the undisturbed
//! pace while a tenth of the run is undisturbed without resting on a
//! single sample. Median, quartiles and tail are printed beside it.

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)`; absent below 20 samples, where even the
    /// median has fewer than ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

/// The percentiles a tail may be reported at.
const TAIL_PERCENTILES: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation at 1-based rank `pos` of a sorted slice, clamped
/// to the ends — the exclusive method of Python's `statistics.quantiles`.
fn at_rank(sorted: &[f64], pos: f64) -> f64 {
    let pos = pos.clamp(1.0, sorted.len() as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let hi = (lo + 1).min(sorted.len());
    sorted[lo - 1] + frac * (sorted[hi - 1] - sorted[lo - 1])
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    at_rank(&s, (s.len() + 1) as f64 / 2.0)
}

/// The 10th percentile: the pace of the undisturbed host (see the module
/// comment).
pub fn pace(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    at_rank(&s, (s.len() + 1) as f64 / 10.0)
}

pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary {
            n: 0,
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            tail: None,
        };
    }
    let s = sorted(samples);
    let n = s.len();
    let rank = |q: f64| at_rank(&s, q * (n + 1) as f64);
    let tail = TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|&p| (p, s[((n as f64 * p / 100.0).ceil() as usize).min(n) - 1]));
    Summary {
        n,
        median: rank(0.5),
        q1: rank(0.25),
        q3: rank(0.75),
        tail,
    }
}

impl Summary {
    /// The value of the tail percentile, or the median when there are too
    /// few samples for one.
    pub fn tail_value(&self) -> f64 {
        self.tail.map_or(self.median, |(_, v)| v)
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.n as f64)),
        ];
        if let Some((p, v)) = self.tail {
            fields.push(("tail_percentile", Json::Num(p)));
            fields.push(("tail", Json::Num(v)));
        }
        Json::obj(fields)
    }
}

/// `|a - b| / pooled` in percent: how far the values two passes over the
/// same workload report disagree.
pub fn ab_spread_pct(a: f64, b: f64, pooled: f64) -> f64 {
    if pooled == 0.0 {
        return 0.0;
    }
    100.0 * (a - b).abs() / pooled
}
