//! Output checks: every row the program returns is compared bit for bit
//! against an independently computed reference.

use seqavf_core::engine::SartEngine;
use seqavf_core::mapping::StructureMapping;
use seqavf_core::sweep::{run_sweep, SweepOutcome};
use seqavf_netlist::flatten::parse_netlist;
use seqavf_netlist::graph::Netlist;
use seqavf_serve::api::{AvfResponse, NamedTable};

use crate::design::{workload_pairs, RunConfig};

/// One summary row as raw bits: `(workload, [mean, min, max])`.
pub type Row = (String, [u64; 3]);

fn row(workload: &str, mean: f64, min: f64, max: f64) -> Row {
    (
        workload.to_owned(),
        [mean.to_bits(), min.to_bits(), max.to_bits()],
    )
}

/// Rows of a library sweep.
pub fn sweep_rows(outcome: &SweepOutcome) -> Vec<Row> {
    outcome
        .rows
        .iter()
        .map(|r| row(&r.workload, r.mean_seq_avf, r.min_seq_avf, r.max_seq_avf))
        .collect()
}

/// Rows of a service response.
pub fn response_rows(resp: &AvfResponse) -> Vec<Row> {
    resp.rows
        .iter()
        .map(|r| row(&r.workload, r.mean_seq_avf, r.min_seq_avf, r.max_seq_avf))
        .collect()
}

/// The reference for `cold_sweep`: a fresh relaxation resolved per table
/// by the arena evaluator `SartResult::reevaluate_many` — not the compiled
/// DAG the sweep path uses — folded over sequential nodes in node order.
pub fn arena_reference(
    text: &str,
    map_text: &str,
    cfg: &RunConfig,
    tables: &[NamedTable],
) -> Result<Vec<Row>, String> {
    let nl = parse_netlist(text).map_err(|e| format!("reference parse: {e}"))?;
    let mapping = StructureMapping::from_text(&nl, map_text)?;
    let engine = SartEngine::new(&nl, &mapping, cfg.sart());
    let result = engine.run(&tables[0].inputs);
    let inputs: Vec<_> = tables.iter().map(|t| t.inputs.clone()).collect();
    let avfs = result.reevaluate_many(&nl, &inputs, cfg.threads);
    let names: Vec<&str> = tables.iter().map(|t| t.workload.as_str()).collect();
    Ok(fold_rows(&nl, &names, &avfs))
}

/// Summary rows of per-node AVF vectors: the left fold over sequential
/// nodes in node order that `run_sweep` applies.
pub fn fold_rows(nl: &Netlist, names: &[&str], avfs: &[Vec<f64>]) -> Vec<Row> {
    let seq: Vec<usize> = nl.seq_nodes().map(|id| id.index()).collect();
    names
        .iter()
        .zip(avfs)
        .map(|(name, avf)| {
            let (mut sum, mut min, mut max) = (0.0, f64::INFINITY, f64::NEG_INFINITY);
            for &i in &seq {
                sum += avf[i];
                min = min.min(avf[i]);
                max = max.max(avf[i]);
            }
            if seq.is_empty() {
                row(name, 0.0, 0.0, 0.0)
            } else {
                row(name, sum / seq.len() as f64, min, max)
            }
        })
        .collect()
}

/// The reference for the service paths: library `run_sweep`, cold and
/// cache-free, on the same design text, mapping text and tables.
pub fn library_reference(
    text: &str,
    map_text: &str,
    cfg: &RunConfig,
    tables: &[NamedTable],
) -> Result<Vec<Row>, String> {
    let nl = parse_netlist(text).map_err(|e| format!("reference parse: {e}"))?;
    let mapping = StructureMapping::from_text(&nl, map_text)?;
    let outcome = run_sweep(
        &nl,
        &mapping,
        &cfg.sart(),
        &tables[0].inputs,
        &workload_pairs(tables),
        &cfg.sweep_options(),
    )?;
    Ok(sweep_rows(&outcome))
}

/// FNV-1a over rows' names and bits: equal digests mean bit-equal rows
/// (up to 64-bit collisions). Lets a many-op run keep 8 bytes per op for
/// the check instead of every row.
pub fn digest(rows: &[Row]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for (name, bits) in rows {
        eat(name.as_bytes());
        eat(&[0]);
        for b in bits {
            eat(&b.to_le_bytes());
        }
    }
    h
}

/// `Ok` when `got` equals `want` bit for bit, else the first difference.
pub fn compare(got: &[Row], want: &[Row]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        if g != w {
            return Err(format!(
                "row {} = {:?}, expected {} = {:?}",
                g.0,
                g.1.map(f64::from_bits),
                w.0,
                w.1.map(f64::from_bits)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_rows_that_differ_in_one_bit() {
        let a = vec![row("w00", 0.25, 0.1, 0.5), row("w01", 0.3, 0.2, 0.4)];
        let mut b = a.clone();
        b[1].1[0] ^= 1;
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
        assert!(compare(&a, &b).is_err());
        assert!(compare(&a, &a).is_ok());
    }
}
