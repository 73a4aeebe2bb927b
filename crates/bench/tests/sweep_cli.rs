//! The `sweep` driver rejects bad options with exit 2 before it runs a
//! single cell: no table on stdout, no sweep summary on stderr.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A rejection takes milliseconds; the deadline only stops a driver
/// that wrongly started simulating (`--duration inf` used to run
/// forever).
const DEADLINE: Duration = Duration::from_secs(5);

fn rejects(args: &[&str]) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning sweep");
    let start = Instant::now();
    while child.try_wait().expect("polling sweep").is_none() {
        if start.elapsed() > DEADLINE {
            child.kill().expect("killing sweep");
            panic!("sweep {args:?} still running after {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let output = child.wait_with_output().expect("collecting sweep output");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "sweep {args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "sweep {args:?} printed a table");
    assert!(
        stderr.starts_with("sweep: ") && !stderr.contains("# sweep"),
        "sweep {args:?} ran cells: {stderr}"
    );
}

#[test]
fn bad_durations_exit_2() {
    for duration in ["0", "-1", "nan", "inf", "2s"] {
        rejects(&["--duration", duration]);
    }
}

#[test]
fn zero_workers_exit_2() {
    rejects(&["--workers", "0"]);
}

#[test]
fn unknown_grid_exits_2() {
    rejects(&["--grid", "nosuch"]);
}

#[test]
fn grid_with_perf_grid_options_exits_2() {
    rejects(&["--grid", "table1", "--benchmarks", "mf"]);
    rejects(&["--variants", "sc", "--grid", "fig7"]);
    rejects(&["--grid", "ablations", "--no-fix-cells"]);
}
