//! `biq model load|unload|list`: fleet management against a running
//! daemon over the `BIQP` model-admin verbs.
//!
//! `load` asks the daemon to read a `BIQM` artifact **from its own
//! filesystem** (the frame carries a path, never artifact bytes) and
//! register it online: a new name becomes version 1, an existing name is
//! swapped to the next version with the old one retired — in-flight
//! requests drain on the version that admitted them. `unload` retires a
//! version (the live one by default), and `list` prints the fleet table:
//! one row per version, live and retired, with resident bytes, in-flight
//! and completed counts. A daemon started with `--mem-budget` refuses
//! loads past the ceiling after evicting cold idle models (LRU; models
//! with in-flight work are never evicted).

use crate::{connect_retry, CliError};
use biq_obs::{render_models_section, ModelRow};
use biq_serve::net::NetClient;
use biq_serve::ModelInfo;

/// Connection attempts before giving up (100 ms apart) — same retry
/// discipline as the other admin clients, so `biq model` can race a
/// daemon that is still binding.
const CONNECT_ATTEMPTS: usize = 10;

/// What `biq model load` reports back.
#[derive(Clone, Debug)]
pub struct ModelLoadReport {
    /// Version the load produced (1 for a new name, previous+1 for a swap).
    pub version: u32,
    /// Estimated resident bytes of the loaded version.
    pub mem_bytes: u64,
    /// Ops the version registered.
    pub ops: u32,
    /// `name@version` of every model evicted to make room under the
    /// memory budget.
    pub evicted: Vec<String>,
}

/// `biq model load`: loads (or swaps) `name` from a `BIQM` artifact at
/// `path` on the daemon's filesystem.
pub fn cmd_model_load(addr: &str, name: &str, path: &str) -> Result<ModelLoadReport, CliError> {
    let mut client = connect_retry(addr, CONNECT_ATTEMPTS)?;
    let (version, mem_bytes, ops, evicted) =
        client.load_model(name, path).map_err(|e| CliError(format!("load {name}: {e}")))?;
    Ok(ModelLoadReport { version, mem_bytes, ops, evicted })
}

/// `biq model unload`: retires `version` of `name` (`0` targets the live
/// version). Returns `(version retired, ops retired)`.
pub fn cmd_model_unload(addr: &str, name: &str, version: u32) -> Result<(u32, u32), CliError> {
    let mut client = connect_retry(addr, CONNECT_ATTEMPTS)?;
    client.unload_model(name, version).map_err(|e| CliError(format!("unload {name}: {e}")))
}

/// `biq model list`: the daemon's fleet table, live and retired versions.
pub fn cmd_model_list(addr: &str) -> Result<Vec<ModelInfo>, CliError> {
    let mut client = connect_retry(addr, CONNECT_ATTEMPTS)?;
    client.list_models().map_err(|e| CliError(format!("list models: {e}")))
}

/// Renders the fleet table `biq model list` prints — the obs renderer
/// over the wire rows, so `biq top`'s MODELS section and this command
/// always agree. `budget` is read from the daemon's stats when known.
pub fn render_model_list(models: &[ModelInfo], budget: Option<u64>) -> String {
    render_models_section(&model_rows(models), budget)
}

/// Maps wire fleet rows into the obs renderer's shape (obs cannot depend
/// on the serving crate, so the row struct lives there and callers map).
pub fn model_rows(models: &[ModelInfo]) -> Vec<ModelRow> {
    models
        .iter()
        .map(|m| ModelRow {
            name: m.name.clone(),
            version: m.version,
            live: m.live,
            mem_bytes: m.mem_bytes,
            ops: m.ops as u64,
            inflight: m.inflight,
            completed: m.completed,
        })
        .collect()
}

/// The daemon's `--mem-budget` ceiling, read from its stats export
/// (`biq_mem_budget_bytes`). Best-effort: `None` when unset or the
/// daemon is unreachable.
pub fn fetch_mem_budget(addr: &str) -> Option<u64> {
    let mut client = NetClient::connect(addr).ok()?;
    let samples = client.stats().ok()?;
    samples.iter().find(|s| s.name == "biq_mem_budget_bytes").and_then(|s| match s.value {
        biq_obs::MetricValue::Gauge(v) if v > 0 => Some(v as u64),
        _ => None,
    })
}

/// Parses a `--mem-budget` byte count: plain digits, or digits with a
/// binary `K` / `M` / `G` suffix (case-insensitive), e.g. `64M` = 64 MiB.
pub fn parse_mem_budget(s: &str) -> Result<u64, CliError> {
    let bad = || CliError(format!("--mem-budget '{s}' is not BYTES or BYTES with K/M/G suffix"));
    let (digits, shift) = match s.char_indices().last().ok_or_else(bad)? {
        (i, 'k' | 'K') => (&s[..i], 10),
        (i, 'm' | 'M') => (&s[..i], 20),
        (i, 'g' | 'G') => (&s[..i], 30),
        _ => (s, 0),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    n.checked_shl(shift).filter(|v| *v >> shift == n).ok_or_else(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_cmds::{cmd_compile, cmd_run_model, CompileConfig};
    use crate::net_cmds::{cmd_load_client, start_daemon, DaemonConfig};
    use crate::traffic::TrafficConfig;
    use biq_artifact::fnv1a64;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("biq_cli_fleet_{name}"))
    }

    fn linear_cfg(seed: u64) -> CompileConfig {
        CompileConfig { kind: "linear".into(), d_model: 16, d_ff: 24, seed, ..Default::default() }
    }

    #[test]
    fn mem_budget_parses_suffixes_and_rejects_garbage() {
        assert_eq!(parse_mem_budget("4096").unwrap(), 4096);
        assert_eq!(parse_mem_budget("8K").unwrap(), 8 << 10);
        assert_eq!(parse_mem_budget("64m").unwrap(), 64 << 20);
        assert_eq!(parse_mem_budget("2G").unwrap(), 2 << 30);
        for bad in ["", "M", "1.5G", "64MB", "-1", "99999999999999999999G"] {
            assert!(parse_mem_budget(bad).is_err(), "{bad}");
        }
    }

    /// The full fleet workflow over the wire: load a second model online,
    /// swap the boot model to new weights mid-traffic with digest parity
    /// per version, list both, and unload — the same legs the CI daemon
    /// smoke drives through the `biq` binary.
    #[test]
    fn load_swap_list_unload_round_trip_with_digest_parity() {
        let boot_v1 = tmp("boot.biqmod");
        let boot_v2 = tmp("boot_v2.biqmod");
        let aux = tmp("aux.biqmod");
        cmd_compile(&linear_cfg(1), &boot_v1).unwrap();
        cmd_compile(&linear_cfg(2), &boot_v2).unwrap();
        // The second model must not collide on op names with the boot
        // linear, so it is an LSTM (`lstm.w_ih` / `lstm.w_hh`).
        cmd_compile(
            &CompileConfig { kind: "lstm".into(), d_model: 8, d_ff: 12, ..Default::default() },
            &aux,
        )
        .unwrap();

        let cfg = DaemonConfig { mem_budget: Some(64 << 20), ..DaemonConfig::default() };
        let (net, _) = start_daemon(&boot_v1, "127.0.0.1:0", &cfg).unwrap();
        let addr = net.local_addr().to_string();

        // v1 serves with run-model digest parity (the boot model is named
        // after the artifact's file stem).
        let digest = |seed: u64, requests: usize| {
            cmd_load_client(&TrafficConfig {
                addr: addr.clone(),
                op: Some("linear".into()),
                requests,
                seed,
                ..TrafficConfig::default()
            })
            .unwrap()
            .digest
        };
        let reference = |path: &std::path::Path, seed: u64, len: usize| {
            let (_, out) = cmd_run_model(path, seed, len).unwrap();
            fnv1a64(&out.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>())
        };
        assert_eq!(digest(3, 20), reference(&boot_v1, 3, 20), "v1 digest parity");

        // Online load of the second model.
        let loaded = cmd_model_load(&addr, "aux", aux.to_str().unwrap()).unwrap();
        assert_eq!(loaded.version, 1);
        assert!(loaded.ops >= 2, "lstm registers its gate matmuls: {loaded:?}");
        assert!(loaded.mem_bytes > 0);
        assert!(loaded.evicted.is_empty(), "64M budget fits both: {loaded:?}");

        // Swap the boot model: same op name, new weights, new version.
        let boot_name = boot_v1.file_stem().unwrap().to_str().unwrap();
        let swapped = cmd_model_load(&addr, boot_name, boot_v2.to_str().unwrap()).unwrap();
        assert_eq!(swapped.version, 2);
        assert_eq!(digest(3, 20), reference(&boot_v2, 3, 20), "v2 digest parity after swap");

        // The fleet table shows the retired v1 next to live v2 and aux.
        let models = cmd_model_list(&addr).unwrap();
        let row = |name: &str, version: u32| {
            models
                .iter()
                .find(|m| m.name == name && m.version == version)
                .unwrap_or_else(|| panic!("no row {name}@{version} in {models:?}"))
        };
        assert!(!row(boot_name, 1).live);
        assert_eq!(row(boot_name, 1).mem_bytes, 0, "retired payload dropped");
        assert!(row(boot_name, 2).live);
        assert!(row("aux", 1).live);
        assert_eq!(row(boot_name, 1).completed + row(boot_name, 2).completed, 40);

        // The rendered table keeps the grep contract and the budget line.
        let table = render_model_list(&models, fetch_mem_budget(&addr));
        assert!(table.starts_with("MODELS 2 live"), "{table}");
        assert!(table.contains("of 64.0M budget"), "{table}");
        assert!(
            table
                .lines()
                .any(|l| l.starts_with(&format!("{boot_name}@1")) && l.contains("retired")),
            "{table}"
        );

        // Unload the aux model; its row flips to retired.
        let (version, ops_retired) = cmd_model_unload(&addr, "aux", 0).unwrap();
        assert_eq!(version, 1);
        assert!(ops_retired >= 2);
        let models = cmd_model_list(&addr).unwrap();
        assert!(models.iter().all(|m| m.name != "aux" || !m.live), "{models:?}");

        // Unloading again is refused (nothing live), but the connection —
        // and the daemon — keep serving.
        assert!(cmd_model_unload(&addr, "aux", 0).is_err());
        assert_eq!(digest(5, 10), reference(&boot_v2, 5, 10), "still serving after refusal");

        net.shutdown();
        for p in [boot_v1, boot_v2, aux] {
            let _ = std::fs::remove_file(p);
        }
    }
}
