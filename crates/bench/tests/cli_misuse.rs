//! Exit-code contract for the `experiments` binary: misuse exits 2 with
//! the usage text, a failed run exits 1, and a full
//! `net-serve`/`net-load` cycle — including the wire-level graceful
//! shutdown — exits 0 on both sides.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

fn run(args: &[&str]) -> std::process::Output {
    Command::new(BIN).args(args).output().expect("spawn")
}

#[test]
fn unknown_experiment_exits_2_with_usage() {
    let out = run(&["no-such-experiment"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
    assert!(stderr.contains("no-such-experiment"), "{stderr}");
}

#[test]
fn missing_experiment_exits_2() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_flag_values_exit_2() {
    // Each of these is caught by argument validation, before any work.
    for args in [
        &["net-load", "--connections", "0"][..],
        &["net-load", "--addr", "no-port-separator"],
        &["net-serve", "--duration", "-3"],
        &["net-load", "--rate", "NaN"],
        &["net-serve", "--port", "70000"],
        &["net-load", "--connections"], // missing value
        // 50 000 points x 0.00001 rounds to an empty data set.
        &["table3", "--scale", "0.00001"],
    ] {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {:?}: stderr {}",
            args,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn undeclared_and_missing_required_flags_exit_2_naming_flag_and_subcommand() {
    // A flag another subcommand declares is still an error here, a removed
    // flag or subcommand is unknown, and a required flag is demanded before
    // the snapshot is even opened (`x` does not exist).
    for (args, flag, subcommand) in [
        (&["fig6", "--port", "99"][..], "--port", "fig6"),
        (&["table3", "--verify-stats"], "--verify-stats", "table3"),
        (&["net-stats", "--scale", "2"], "--scale", "net-stats"),
        (&["net-load", "--rate", "10"], "--rate", "net-load"),
        (
            &["route-serve", "--path", "x"],
            "--shard-addrs",
            "route-serve",
        ),
        (&["shard-serve"], "--path", "shard-serve"),
        // A switch takes no value: the argument after it is still checked.
        (
            &["net-stats", "--shutdown-server", "--port", "1"],
            "--port",
            "net-stats",
        ),
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: stderr {stderr}");
        let error = stderr.lines().next().unwrap_or_default();
        assert!(
            error.contains(flag) && error.contains(subcommand),
            "args {args:?}: {error}"
        );
    }
    let out = run(&["scan"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment 'scan'"));
}

/// The subcommand names the top-level usage text lists: the lines of its
/// `subcommands:` section that are indented by exactly two spaces, up to
/// the two-space gap before the description.
fn names_in_usage() -> Vec<String> {
    let out = run(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let section = stderr
        .split_once("subcommands:\n")
        .expect("usage has a subcommands section")
        .1;
    section
        .lines()
        .take_while(|line| !line.is_empty())
        .filter_map(|line| line.strip_prefix("  "))
        .filter(|line| !line.starts_with(' '))
        .flat_map(|line| {
            let names = line.split("  ").next().unwrap_or_default();
            names.split_whitespace().map(str::to_string)
        })
        .collect()
}

#[test]
fn every_listed_subcommand_dispatches_and_rejects_undeclared_flags() {
    // The table is the CLI: a name that is listed but not dispatchable
    // answers "unknown experiment" here; argument validation runs before
    // any work, so each probe costs milliseconds.
    let names = names_in_usage();
    for expected in ["table3", "fig7", "fig19", "route-serve", "all"] {
        assert!(
            names.iter().any(|n| n == expected),
            "{expected} not in {names:?}"
        );
    }
    assert_eq!(names.len(), 27, "{names:?}");
    for name in &names {
        let out = run(&[name, "--no-such-flag"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("unknown argument"), "{name}: {stderr}");
        assert!(!stderr.contains("unknown experiment"), "{name}: {stderr}");
    }
}

#[test]
fn net_load_against_a_dead_server_exits_1() {
    // Nothing listens on this port (bound then dropped, so the OS refuses
    // connections fast); the load generator must fail cleanly, not hang.
    let port = {
        let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        sock.local_addr().unwrap().port()
    };
    let out = run(&[
        "net-load",
        "--addr",
        &format!("127.0.0.1:{port}"),
        "--connections",
        "1",
        "--queries",
        "10",
        "--scale",
        "0.01",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_load_shutdown_cycle_exits_0_on_both_sides() {
    // Full lifecycle: background server on an ephemeral port, load
    // generator against it, wire-level shutdown, and both processes exit 0
    // — the drain leaves no listener behind.
    let mut server = Command::new(BIN)
        .args([
            "net-serve",
            "--scale",
            "0.02",
            "--epochs",
            "5",
            "--port",
            "0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server");

    // The server prints its bound address before entering the serve loop.
    // Keep the pipe open for the server's lifetime — closing it would turn
    // the server's post-drain report into a broken-pipe failure.
    let stdout = server.stdout.take().unwrap();
    let mut reader = BufReader::new(stdout);
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap() > 0 {
        if let Some(rest) = line.trim_end().strip_prefix("netserve listening on ") {
            addr = Some(rest.trim().to_string());
            break;
        }
        line.clear();
    }
    let addr = addr.expect("server announced its address");

    let load = run(&[
        "net-load",
        "--addr",
        &addr,
        "--connections",
        "2",
        "--queries",
        "50",
        "--write-ratio",
        "0.1",
        "--scale",
        "0.02",
        "--shutdown-server",
    ]);
    assert_eq!(
        load.status.code(),
        Some(0),
        "load stderr: {}",
        String::from_utf8_lossy(&load.stderr)
    );

    // The wire shutdown drains the server, which then exits 0.  Drain the
    // rest of its report output so it can finish printing.
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
    let status = server.wait().expect("server exit");
    assert_eq!(status.code(), Some(0));

    // The listener is gone: a fresh connection is refused (or accepted by
    // a lingering OS backlog and then unable to answer).
    assert!(
        net::NetClient::connect(&addr).is_err() || {
            let mut c = net::NetClient::connect(&addr).unwrap();
            c.ping().is_err()
        }
    );
}
