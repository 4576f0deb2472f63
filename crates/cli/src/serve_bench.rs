//! `biq serve-bench`: replays synthetic open-loop traffic against a live
//! `biq_serve::Server` and records throughput/latency per batching mode.
//!
//! The experiment pins the paper's amortisation argument at the system
//! level: a stream of single-column queries against one 512×512 1-bit
//! operator, served once with batching disabled (`max_batch_cols = 1`,
//! every request pays its own LUT build) and once with a batch window
//! (`max_batch_cols ≥ 4`, one build amortised across the packed bucket).
//! Results append to `results/BENCH_serve.json`.

use crate::net_cmds::DaemonConfig;
use crate::traffic::{
    artifact_registry, in_process_row, synthetic_registry, write_record, Record, TrafficConfig,
    TrafficReport,
};
use crate::CliError;
use biq_artifact::Artifact;
use std::path::Path;
use std::time::Duration;

/// The `serve-bench` rows, unbatched first: each mode starts a fresh
/// server — over the artifact's first op when `model` is given (no fp32
/// weights, no re-quantization), else over the synthetic 1-bit op — and
/// puts the whole trace in flight at once on one lane, the open-loop
/// burst the batcher packs.
pub fn serve_bench_rows(
    cfg: &TrafficConfig,
    model: Option<&Path>,
) -> Result<Vec<TrafficReport>, CliError> {
    // Open and validate the artifact once; both replays build their own
    // registry/server from the shared, already-checksummed buffer.
    let artifact = model
        .map(|path| Artifact::open(path).map_err(|e| CliError(format!("{path:?}: {e}"))))
        .transpose()?;
    let batched = DaemonConfig { queue_capacity: cfg.requests.max(16), ..cfg.server };
    let unbatched = DaemonConfig { window: Duration::ZERO, max_batch_cols: 1, ..batched };
    [("unbatched", unbatched), ("batched", batched)]
        .into_iter()
        .map(|(mode, server)| {
            let (registry, op) = match &artifact {
                Some(artifact) => artifact_registry(artifact)?,
                None => (
                    synthetic_registry(cfg.rows, cfg.cols, server.max_batch_cols),
                    "synthetic".to_string(),
                ),
            };
            let traffic = TrafficConfig {
                op: Some(op),
                concurrency: 1,
                pipeline: cfg.requests,
                ..cfg.clone()
            };
            Ok(TrafficReport { mode, ..in_process_row(registry, &server, &traffic)? })
        })
        .collect()
}

/// `biq serve-bench`: runs [`serve_bench_rows`], writes the JSON record,
/// and returns the rows.
pub fn cmd_serve_bench(
    cfg: &TrafficConfig,
    model: Option<&Path>,
    out_path: &Path,
) -> Result<Vec<TrafficReport>, CliError> {
    let rows = serve_bench_rows(cfg, model)?;
    write_record(out_path, &rows, Record::Serve)?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_bench_smoke_writes_json_and_batches_win_shape() {
        // Tiny smoke configuration: correctness of the plumbing, not perf
        // (debug builds invert every speed relationship).
        let cfg = TrafficConfig {
            rows: 64,
            cols: 64,
            requests: 40,
            server: DaemonConfig {
                workers: 2,
                window: Duration::from_micros(100),
                max_batch_cols: 8,
                ..DaemonConfig::default()
            },
            ..TrafficConfig::default()
        };
        let path = std::env::temp_dir().join("biq_serve_bench_smoke.json");
        let rows = cmd_serve_bench(&cfg, None, &path).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].mode, "unbatched");
        assert_eq!(rows[1].mode, "batched");
        assert!((rows[0].mean_batch_cols - 1.0).abs() < f64::EPSILON);
        assert!(rows.iter().all(|r| r.throughput_rps > 0.0));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"mode\": \"batched\""), "{json}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn serve_bench_replays_against_a_loaded_artifact() {
        use crate::model_cmds::{cmd_compile, CompileConfig};
        let model_path = std::env::temp_dir().join("biq_serve_bench_model.biqmod");
        let compile_cfg = CompileConfig {
            kind: "lstm".into(),
            d_model: 16, // hidden
            d_ff: 24,    // input size
            ..CompileConfig::default()
        };
        cmd_compile(&compile_cfg, &model_path).unwrap();
        let cfg = TrafficConfig {
            requests: 30,
            server: DaemonConfig {
                workers: 2,
                window: Duration::from_micros(100),
                max_batch_cols: 4,
                ..DaemonConfig::default()
            },
            ..TrafficConfig::default()
        };
        let json_path = std::env::temp_dir().join("biq_serve_bench_model.json");
        let rows = cmd_serve_bench(&cfg, Some(&model_path), &json_path).unwrap();
        // First artifact op is lstm.w_ih: 4·hidden × input.
        assert_eq!(rows[0].op, "lstm.w_ih");
        assert_eq!((rows[0].m, rows[0].n), (64, 24));
        assert!(rows.iter().all(|r| r.throughput_rps > 0.0));
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"op\": \"lstm.w_ih\""), "{json}");
        for p in [model_path, json_path] {
            let _ = std::fs::remove_file(p);
        }
    }
}
