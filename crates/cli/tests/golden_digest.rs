//! Output-bit goldens for the width-1 (b = 1) GEMV path, end to end
//! through `biq compile` and `biq run-model`. The LSTM below steps one
//! frame at a time, so every gate matmul is a width-1 tile: `w_ih`
//! (1280×603) spans three chunk tiles at µ = 8 with a last chunk 3 wide,
//! and β = 3 gives three weight planes per output row. The digest was
//! recorded before the width-1 loop was reordered; it must not move at the
//! host's kernel level or at the portable scalar level.

use std::process::Command;

const GOLDEN: &str = "digest 7c975f397e2f3011";

fn run_model_digest(model: &std::path::Path, kernel: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_biq"));
    cmd.args(["run-model", model.to_str().unwrap(), "--seed", "3", "--len", "8"]);
    match kernel {
        Some(level) => cmd.env("BIQ_KERNEL", level),
        None => cmd.env_remove("BIQ_KERNEL"),
    };
    let out = cmd.output().expect("spawn biq run-model");
    assert!(out.status.success(), "run-model failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let at = stdout.find("digest ").unwrap_or_else(|| panic!("no digest in: {stdout}"));
    stdout[at..].split(',').next().unwrap().trim().to_string()
}

#[test]
fn lstm_width1_digest_is_unchanged_at_host_and_scalar_levels() {
    let model =
        std::env::temp_dir().join(format!("biq_golden_digest_{}_lstm.biqmod", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_biq"))
        .args(["compile", "--model", "lstm", "--d-model", "320", "--d-ff", "603"])
        .args(["--bits", "3", "--seed", "1", model.to_str().unwrap()])
        .env_remove("BIQ_KERNEL")
        .output()
        .expect("spawn biq compile");
    assert!(status.status.success(), "compile failed: {status:?}");
    let host = run_model_digest(&model, None);
    let scalar = run_model_digest(&model, Some("scalar"));
    let _ = std::fs::remove_file(&model);
    assert_eq!(host, GOLDEN, "host kernel level");
    assert_eq!(scalar, GOLDEN, "BIQ_KERNEL=scalar");
}
