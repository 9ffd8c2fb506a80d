//! The `serve` binary's command line: flags that would boot a server unable
//! to answer, and flags the binary no longer has, exit 2 with the usage
//! text before anything binds.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// How long a refused command line may take to exit; a server that booted
/// instead is killed after this and fails the test.
const KILL_AFTER: Duration = Duration::from_secs(10);

/// Run `serve --addr 127.0.0.1:0 <args>`, killing it if it outlives
/// [`KILL_AFTER`].  Returns its output and whether it had to be killed.
fn serve(args: &[&str]) -> (Output, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .env_remove("TREEMEM_FAULT_PLAN")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let started = Instant::now();
    let mut killed = false;
    while child.try_wait().expect("serve is waitable").is_none() {
        if started.elapsed() > KILL_AFTER {
            child.kill().expect("serve is killable");
            killed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    (child.wait_with_output().expect("serve output"), killed)
}

fn assert_refused(args: &[&str], message: &str) {
    let (output, killed) = serve(args);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!killed, "{args:?} booted a server: {stdout}");
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stdout.contains("serving on"), "{args:?} bound: {stdout}");
    assert!(stderr.contains("usage: serve"), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
}

#[test]
fn zero_deadlines_are_refused_at_boot() {
    for flag in ["--default-deadline-ms", "--max-deadline-ms"] {
        assert_refused(&[flag, "0"], flag);
    }
}

#[test]
fn retired_cache_flags_are_unknown() {
    for (flag, value) in [
        ("--tenant-quota-bytes", "1048576"),
        ("--tenant-floor", "0.5"),
        ("--cache-ttl-seconds", "60"),
    ] {
        assert_refused(&[flag, value], &format!("unknown argument '{flag}'"));
    }
}
