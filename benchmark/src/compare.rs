//! `compare A.json B.json`: one row per end-to-end metric and workload.
//!
//! B against A: `within bound`, `worse`, `better`, or `unresolved` when
//! either side's own two passes disagree by more than the bound — then the
//! run-to-run spread is wider than what the bound could resolve. Exact
//! metrics are compared exactly. `worse` anywhere, or a failed operation
//! on either side, makes the exit code non-zero.

use crate::json::{self, Json};
use std::path::Path;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn num(obj: &Json, key: &str) -> f64 {
    obj.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    for (side, path) in [(&a, a_path), (&b, b_path)] {
        let failed = num(side, "ops_failed");
        if failed > 0.0 {
            println!("{}: ops_failed {failed}", path.display());
            ok = false;
        }
    }
    println!(
        "{:<18} {:<20} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "change_%", "bound_%"
    );
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("a: no workloads")?;
    for (workload, wa) in workloads {
        let metrics = wa
            .get("end_to_end")
            .and_then(Json::as_obj)
            .ok_or("a: no end_to_end")?;
        for (metric, ma) in metrics {
            let mb = b
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("end_to_end"))
                .and_then(|e| e.get(metric))
                .ok_or_else(|| format!("b: no {metric} on {workload}"))?;
            let (va, vb) = (num(ma, "value"), num(mb, "value"));
            let bound = num(ma, "bound");
            let higher = ma.get("better").and_then(Json::as_str) == Some("higher");
            // Positive = worse, as a share of A.
            let worse_by = if higher {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let exact = bound < 0.01;
            let noisy = num(ma, "ab_spread_pct").max(num(mb, "ab_spread_pct")) > 100.0 * bound;
            let verdict = if exact && va == vb {
                "within bound"
            } else if exact {
                if worse_by > 0.0 {
                    "worse"
                } else {
                    "better"
                }
            } else if noisy {
                "unresolved"
            } else if worse_by > bound {
                "worse"
            } else if worse_by < -bound {
                "better"
            } else {
                "within bound"
            };
            ok &= verdict != "worse";
            println!(
                "{workload:<18} {metric:<20} {va:>16.6} {vb:>16.6} {:>+9.2} {:>7.1}  {verdict}",
                100.0 * worse_by,
                100.0 * bound
            );
        }
    }
    Ok(ok)
}
