//! End-to-end tests of the `mct` binary: the full
//! `infer → validate → show → query → diff` workflow through the real
//! executable, plus exit-code and error-path coverage.

use std::path::{
    Path,
    PathBuf, //
};
use std::process::{
    Command,
    Output, //
};

fn mct(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mct"))
        .args(args)
        .output()
        .expect("mct runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mct-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}\n{}",
        stdout(out),
        stderr(out)
    );
}

#[test]
fn infer_validate_show_query_diff_pipeline() {
    let dir = tmpdir("pipeline");
    let desc = dir.join("synth-small.mct.json");
    let desc_str = desc.to_str().unwrap();

    // infer: write a description file for a preset.
    let out = mct(&["infer", "synth-small", "--out", desc_str]);
    assert_success(&out, "infer");
    assert!(desc.is_file());

    // validate: the file parses, carries provenance, passes validation.
    let out = mct(&["validate", desc_str]);
    assert_success(&out, "validate");
    assert!(stdout(&out).contains("ok"), "{}", stdout(&out));
    assert!(stdout(&out).contains("mct infer"), "{}", stdout(&out));

    // show: text and DOT renderings.
    let out = mct(&["show", desc_str]);
    assert_success(&out, "show text");
    assert!(stdout(&out).contains("synth-small"));
    assert!(stdout(&out).contains("socket"));
    let out = mct(&["show", desc_str, "--format", "dot"]);
    assert_success(&out, "show dot");
    assert!(stdout(&out).contains("digraph"));

    // query: contexts 0 and 8 share a core on synth-small (SMT-2,
    // cores-first numbering), so their latency is the SMT latency.
    let out = mct(&["query", desc_str, "latency", "0", "8"]);
    assert_success(&out, "query latency");
    assert_eq!(stdout(&out).trim(), "30");
    let out = mct(&["query", desc_str, "closest", "0"]);
    assert_success(&out, "query closest");
    assert_eq!(stdout(&out).trim(), "1");

    // diff: identical files agree (exit 0)...
    let out = mct(&["diff", desc_str, desc_str]);
    assert_success(&out, "self diff");
    assert!(stdout(&out).contains("=="));

    // ...and the file agrees with the shipped description it mirrors.
    let out = mct(&["diff", desc_str, "synth-small"]);
    assert_success(&out, "diff vs shipped");

    // A different machine differs, with exit code 1 and a field list.
    let out = mct(&["diff", desc_str, "synth-nosmt"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("smt"), "{}", stdout(&out));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shipped_names_resolve_without_files() {
    let out = mct(&["validate", "ivy"]);
    assert_success(&out, "validate shipped");
    assert!(stdout(&out).contains("mct regen-descs"));

    let out = mct(&["query", "ivy", "latency", "0", "20"]);
    assert_success(&out, "query shipped");
    // Fig. 6: contexts 0 and 20 are SMT siblings on Ivy, 28 cycles.
    assert_eq!(stdout(&out).trim(), "28");
}

#[test]
fn list_names_every_platform() {
    let out = mct(&["list"]);
    assert_success(&out, "list");
    let text = stdout(&out);
    for name in ["ivy", "westmere", "haswell", "opteron", "sparc", "synth-"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn regen_descs_roundtrip_and_check() {
    let dir = tmpdir("regen");
    let dir_str = dir.to_str().unwrap();

    // A fresh regeneration into an empty dir, then --check passes.
    let out = mct(&["regen-descs", "--dir", dir_str]);
    assert_success(&out, "regen");
    let out = mct(&["regen-descs", "--dir", dir_str, "--check"]);
    assert_success(&out, "regen check");

    // Tamper with one file: --check fails with exit 1.
    let victim = dir.join("ivy.mct.json");
    let text = std::fs::read_to_string(&victim).unwrap();
    std::fs::write(&victim, text.replace("\"version\": 4", "\"version\": 3")).unwrap();
    let out = mct(&["regen-descs", "--dir", dir_str, "--check"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("STALE"), "{}", stdout(&out));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jobs_flag_is_refused() {
    // Collection runs on one prober: `--jobs` is an unknown flag, a
    // usage error (exit 2) like every bad invocation, and writes
    // nothing to stdout.
    for jobs in ["1", "2"] {
        let out = mct(&["infer", "ivy", "--jobs", jobs, "--stdout"]);
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stderr(&out).contains("--jobs"), "{}", stderr(&out));
        assert!(stdout(&out).is_empty());
    }
}

#[test]
fn exhaustive_flag_never_changes_output() {
    // Hierarchy-first collection predicts most cross-socket pairs; a
    // noiseless prediction is exact, so opting out of it changes the
    // pair count and nothing else.
    for machine in ["ivy", "westmere"] {
        let planned = mct(&["infer", machine, "--stdout"]);
        let exhaustive = mct(&["infer", machine, "--exhaustive", "--stdout"]);
        assert_success(&planned, "infer");
        assert_success(&exhaustive, "infer --exhaustive");
        assert_eq!(
            stdout(&planned),
            stdout(&exhaustive),
            "{machine}: --exhaustive changed bytes"
        );
    }
}

#[test]
fn corrupt_and_missing_descriptions_are_rejected() {
    let dir = tmpdir("corrupt");

    // Provenance stripped: refuse to load (no silent default).
    let out = mct(&["infer", "synth-nosmt", "--stdout"]);
    assert_success(&out, "infer --stdout");
    let full = stdout(&out);
    let headerless = {
        // Cut the provenance object out of the pretty-printed JSON.
        let start = full.find("  \"provenance\": {").unwrap();
        let end = full[start..].find("\n  },\n").unwrap() + start + "\n  },\n".len();
        format!("{}{}", &full[..start], &full[end..])
    };
    let bad = dir.join("bad.mct.json");
    std::fs::write(&bad, headerless).unwrap();
    let out = mct(&["validate", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("provenance"), "{}", stderr(&out));

    // Unknown name: helpful error listing the shipped machines.
    let out = mct(&["show", "no-such-machine"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("shipped machine name"));

    // Usage errors exit 2.
    let out = mct(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = mct(&["diff", "ivy"]);
    assert_eq!(out.status.code(), Some(2));
    let out = mct(&["infer", "ivy", "--adaptive", "--stdout"]);
    assert_eq!(out.status.code(), Some(2));

    assert!(!Path::new(&dir.join("never-written.json")).exists());
    let _ = std::fs::remove_dir_all(&dir);
}
