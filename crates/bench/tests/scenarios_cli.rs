//! `experiments scenarios` finds the committed goldens from any working
//! directory: run from a fresh temporary directory, every catalogue entry
//! must still report `match` and the command must exit 0.

use std::process::Command;

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
