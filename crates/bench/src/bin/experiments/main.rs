//! Regenerates every table and figure of the paper's evaluation (§6), and
//! runs the processes whose checks cross a process boundary: the
//! persistence pair (`snapshot`, then `serve` in a fresh process) and the
//! network and distributed serving processes.  Every subcommand that
//! verifies something exits 1 on a wrong answer, a failed drain or a leaked
//! process.  In-process oracle checks live in the test suites.
//! (Performance is measured elsewhere: `benchmark/` with its contract in
//! `BENCHMARK.json`.)
//!
//! ```text
//! experiments <subcommand> [flags]
//! experiments all [flags]
//! ```
//!
//! **[`SUBCOMMANDS`] is the one place a subcommand is declared.**  Each
//! family module (`paper`, `snapshot`, `netserve`, `distributed`) exports
//! its rows — name(s), the
//! flags it reads with their defaults and value checks, whether `all`
//! includes it, the function to run — and the usage text, name lookup,
//! dispatch and `all` are all generated from that table.  A flag a
//! subcommand did not declare is a usage error, and every argument is
//! checked before any work starts: a missing or unknown subcommand, an
//! undeclared flag, a missing, unparsable or out-of-range value, or a
//! missing required flag prints usage and exits with status 2.
//!
//! The paper's experiments run on up to 128 million points and train each
//! sub-model for 500 epochs (16 h of training for the largest data set).
//! The defaults reproduce the *shape* of every experiment at laptop scale:
//! data sizes are tens of thousands of points and the epoch cap is reduced.
//! `--scale` multiplies a subcommand's data-set sizes and `--epochs`
//! restores any epoch cap, so the experiments can be pushed back toward
//! paper scale on bigger machines.  The cap binds every leaf model; an RSMI
//! internal model over `n` points trains at most `⌈6 M / n⌉` epochs whatever
//! the cap (a fixed budget of training rows), so at the default cap of 30,
//! only internal models over 200 k points train fewer.

mod cli;
mod distributed;
mod harness;
mod netserve;
mod paper;
mod snapshot;

use cli::{Args, Run, Subcommand};

/// The subcommand table, one slice per family; `all` runs the rows marked
/// `in_all`, in this order.
static SUBCOMMANDS: [&[Subcommand]; 4] = [
    paper::SUBCOMMANDS,
    snapshot::SUBCOMMANDS,
    netserve::SUBCOMMANDS,
    distributed::SUBCOMMANDS,
];

/// Selects every `in_all` row of the table; the one name that is not a row.
const ALL: &str = "all";

fn table() -> impl Iterator<Item = &'static Subcommand> {
    SUBCOMMANDS.iter().copied().flatten()
}

/// The top-level usage text: every name in the table with the flags its row
/// declares.  (Their help and defaults are printed with any error that
/// concerns one subcommand.)
fn usage() -> String {
    let mut out = String::from("usage: experiments <subcommand> [flags]\n\nsubcommands:\n");
    for sub in table() {
        out.push_str(&format!(
            "  {:<20}  {}{}\n",
            sub.names.join(" "),
            sub.about,
            if sub.in_all { " [all]" } else { "" }
        ));
        let flags: Vec<&str> = sub.flags.iter().map(|f| f.name).collect();
        out.push_str(&format!("      {}\n", flags.join(" ")));
    }
    out.push_str(&format!(
        "  {ALL:<20}  every subcommand marked [all], in the order above\n"
    ));
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((which, flags)) = argv.split_first() else {
        cli::usage_error("missing experiment name", &usage());
    };
    if which.starts_with("--") {
        cli::usage_error("the experiment name must come before any flags", &usage());
    }
    let selected: Vec<&'static Subcommand> = if which == ALL {
        table().filter(|sub| sub.in_all).collect()
    } else {
        table()
            .filter(|sub| sub.names.contains(&which.as_str()))
            .collect()
    };
    if selected.is_empty() {
        cli::usage_error(&format!("unknown experiment '{which}'"), &usage());
    }
    // Every selected row checks its own flags before anything runs.
    let tokens = cli::tokenize(which, &selected, flags);
    let runs: Vec<(&Subcommand, Args)> = selected
        .iter()
        .map(|&sub| (sub, Args::parse(sub, &tokens)))
        .collect();

    println!("# RSMI reproduction experiments");
    // Set by the verified subcommands; a mismatch fails the run after
    // every selected subcommand has printed its tables.
    let mut failed = false;
    for (sub, args) in &runs {
        println!("\n_{}_", args.effective());
        match sub.run {
            Run::Report(run) => run(args),
            Run::Verified(run) => failed |= !run(args),
        }
    }
    if failed {
        std::process::exit(1);
    }
}
