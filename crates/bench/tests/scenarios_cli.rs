//! `experiments scenarios` finds the committed goldens from any working
//! directory: run from a fresh temporary directory, every catalogue entry
//! must still report `match` and the command must exit 0. A reader that
//! closes stdout early ends the command quietly.

use std::process::{Command, Stdio};

#[test]
fn scenarios_match_their_goldens_from_any_working_directory() {
    let dir = std::env::temp_dir().join(format!("cpm-scenarios-cwd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("scenarios")
        .current_dir(&dir)
        .env_remove("CPM_GOLDEN_DIR")
        .env("CPM_SCENARIO_DIR", &dir)
        .env("CPM_SCENARIOS_JSON", dir.join("BENCH_scenarios.json"))
        .output()
        .expect("run experiments");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let matches = stdout
        .lines()
        .filter(|l| l.split_whitespace().nth(3) == Some("match"))
        .count();
    assert_eq!(
        matches,
        cpm_scenario::CATALOGUE.len(),
        "expected one `match` line per scenario:\n{stdout}"
    );
}

#[test]
fn closed_stdout_ends_scenarios_quietly() {
    let dir = std::env::temp_dir().join(format!("cpm-scenarios-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("scenarios")
        .current_dir(&dir)
        .env("CPM_SCENARIO_DIR", &dir)
        .env("CPM_SCENARIOS_JSON", dir.join("BENCH_scenarios.json"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run experiments");
    // Close the read end before the child writes anything, so its first
    // write to stdout fails.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for experiments");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}\nstderr:\n{stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}
