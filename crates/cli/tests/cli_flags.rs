//! Flag handling of the `biq` binary: `--help`/`-h` after a verb prints
//! usage and runs nothing, and a flag the verb does not take is an error
//! naming it.

use std::process::{Command, Output};

fn biq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_biq")).args(args).output().expect("spawn biq")
}

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("biq_cli_flags_{}_{name}", std::process::id()))
}

#[test]
fn help_after_any_verb_prints_usage_and_runs_nothing() {
    let out = scratch("net.json");
    let out_str = out.to_str().unwrap();
    for args in [
        &["net-bench", "--help", "--out", out_str][..],
        &["serve-bench", "-h", "--out", out_str],
        &["gen", "--rows", "4", "--cols", "4", "--help", out_str],
        &["bench", "check", "--help"],
        &["model", "list", "-h"],
    ] {
        let r = biq(args);
        assert!(r.status.success(), "{args:?}: {r:?}");
        let stdout = String::from_utf8_lossy(&r.stdout);
        assert!(stdout.contains("biq serve-bench"), "{args:?} printed no usage: {stdout}");
        assert!(!out.exists(), "{args:?} ran and wrote {out:?}");
    }
}

#[test]
fn unknown_flags_are_errors_naming_the_flag() {
    let out = scratch("serve.json");
    let r = biq(&["serve-bench", "--gap-uss", "5", "--out", out.to_str().unwrap()]);
    assert!(!r.status.success(), "{r:?}");
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("--gap-uss"), "error must name the flag: {stderr}");
    assert!(!out.exists(), "the replay must not run");

    // The removed `--gap-us` is now just another unknown flag.
    let r = biq(&["serve-bench", "--gap-us", "5", "--out", out.to_str().unwrap()]);
    assert!(String::from_utf8_lossy(&r.stderr).contains("unknown flag --gap-us"), "{r:?}");
    assert!(!out.exists());
}

/// `flags` split on whitespace, then `tail` verbatim (paths may hold
/// spaces).
fn biq_line(flags: &str, tail: &[&str]) -> Output {
    biq(&flags.split_whitespace().chain(tail.iter().copied()).collect::<Vec<_>>())
}

#[test]
fn the_flags_scripts_and_the_benchmark_use_still_parse() {
    // `biq compile` as the stack benchmark and CI call it: it must run.
    let model = scratch("tiny.biqmod");
    let model_str = model.to_str().unwrap();
    let compile = "compile --model transformer --d-model 16 --d-ff 32 --heads 2 --layers 1 \
                   --bits 2 --seed 3";
    let r = biq_line(compile, &[model_str]);
    assert!(r.status.success(), "{r:?}");
    // `biq serve` with the benchmark's and CI's tunables: the flags are
    // accepted, so the run gets as far as binding (an unbindable address
    // fails there).
    let serve = "serve --addr 256.0.0.1:0 --workers 1 --io-threads 1 --window-us 200 \
                 --max-batch 16 --queue-cap 1024 --mem-budget 64M --stats-every 5 \
                 --pin-workers --model";
    let r = biq_line(serve, &[model_str]);
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(!r.status.success());
    assert!(stderr.contains("bind 256.0.0.1:0"), "{stderr}");
    // load-client's flags as CI passes them: they parse, then the connect
    // fails against a closed port.
    let load = "load-client --addr 127.0.0.1:1 --op linear --requests 2 --concurrency 1 \
                --seed 3 --pipeline 2";
    let r = biq_line(load, &[]);
    assert!(!r.status.success());
    assert!(!String::from_utf8_lossy(&r.stderr).contains("unknown flag"), "{r:?}");
    let _ = std::fs::remove_file(model);
}
