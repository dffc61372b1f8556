//! The shape of one row of the subcommand table, and the argument parser
//! that is driven by it.
//!
//! A [`Subcommand`] names itself, declares the [`Flag`]s it reads — each
//! with its default and its value check — says whether `all` includes it,
//! and points at the function to run.  [`Args::parse`] accepts exactly the
//! declared flags: an undeclared flag, a missing value, a value its check
//! rejects, or a missing required flag prints usage and exits with status 2
//! (misuse of the CLI; a *failed* run exits 1), all before any work starts.

use std::collections::BTreeMap;
use std::str::FromStr;

/// One row of the subcommand table.
pub struct Subcommand {
    /// The names that select this entry (`fig6` and `fig7` are one run
    /// printing both figures).
    pub names: &'static [&'static str],
    /// One line for the usage text.
    pub about: &'static str,
    /// Every flag the run function reads; anything else is a usage error.
    pub flags: &'static [Flag],
    /// Whether `experiments all` runs this entry.
    pub in_all: bool,
    /// The function to run.
    pub run: Run,
}

impl Subcommand {
    /// Every name of the row, for messages: `fig6|fig7`.
    pub fn label(&self) -> String {
        self.names.join("|")
    }
}

/// What running a subcommand can come to.
#[derive(Clone, Copy)]
pub enum Run {
    /// Prints its tables; nothing to verify.
    Report(fn(&Args)),
    /// Verifies what it measures; `false` exits the process with status 1
    /// once every selected subcommand has run.
    Verified(fn(&Args) -> bool),
}

/// One flag of one subcommand.
#[derive(Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--scale`.
    pub name: &'static str,
    /// Placeholder of the value in the usage text; `None` for a switch.
    pub value: Option<&'static str>,
    /// What an absent flag reads as; goes through `check` like a typed
    /// value.  `None` means the flag is simply absent ([`Args::opt`]).
    pub default: Option<&'static str>,
    /// An absent required flag is a usage error.
    pub required: bool,
    /// One line for the usage text.
    pub help: &'static str,
    /// Accepts or rejects a raw value; the error completes "`--flag`: …".
    pub check: fn(&str) -> Result<(), String>,
}

impl Flag {
    /// A flag that takes a value.
    pub const fn value(
        name: &'static str,
        value: &'static str,
        check: fn(&str) -> Result<(), String>,
        help: &'static str,
    ) -> Flag {
        Flag {
            name,
            value: Some(value),
            default: None,
            required: false,
            help,
            check,
        }
    }

    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: None,
            default: None,
            required: false,
            help,
            check: check::any,
        }
    }

    /// The same flag reading as `default` when absent.
    pub const fn default(self, default: &'static str) -> Flag {
        Flag {
            default: Some(default),
            ..self
        }
    }

    /// The same flag, mandatory.
    pub const fn required(self) -> Flag {
        Flag {
            required: true,
            ..self
        }
    }

    fn usage_line(&self) -> String {
        let head = match self.value {
            Some(v) => format!("{} {v}", self.name),
            None => self.name.to_string(),
        };
        let tail = match (self.default, self.required) {
            (Some(d), _) => format!(" (default {d})"),
            (None, true) => " (required)".to_string(),
            (None, false) => String::new(),
        };
        format!("  {head:<22} {}{tail}", self.help)
    }
}

/// Prints an argument error plus `usage` and exits with status 2.
pub fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}\n\n{usage}");
    std::process::exit(2);
}

/// Every flag the selected subcommands declare, once per name.
fn declared_flags(selected: &[&'static Subcommand]) -> Vec<&'static Flag> {
    let mut flags: Vec<&Flag> = Vec::new();
    for flag in selected.iter().flat_map(|sub| sub.flags) {
        if !flags.iter().any(|f| f.name == flag.name) {
            flags.push(flag);
        }
    }
    flags
}

/// The usage text of a selection (`who` is one subcommand, or `all`): its
/// flags with help and defaults.
pub fn selection_usage(who: &str, selected: &[&'static Subcommand]) -> String {
    let mut out = format!("usage: experiments {who} [flags]\n");
    if let [sub] = selected {
        out.push_str(&format!("\n{}\n", sub.about));
    }
    let flags = declared_flags(selected);
    if !flags.is_empty() {
        out.push_str("\nflags:\n");
        for flag in flags {
            out.push_str(&flag.usage_line());
            out.push('\n');
        }
    }
    out
}

/// Splits `argv` into `(flag, raw value)` pairs against the flags the
/// selected subcommands declare between them; a switch carries an empty
/// value.  `who` names the selection in error messages.
pub fn tokenize(
    who: &str,
    selected: &[&'static Subcommand],
    argv: &[String],
) -> Vec<(&'static str, String)> {
    let flags = declared_flags(selected);
    let fail = |msg: String| -> ! { usage_error(&msg, &selection_usage(who, selected)) };
    let mut tokens = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let Some(flag) = flags.iter().find(|f| f.name == arg) else {
            let known: Vec<&str> = flags.iter().map(|f| f.name).collect();
            fail(format!(
                "unknown argument: {arg} ({who} takes {})",
                if known.is_empty() {
                    "no flags".to_string()
                } else {
                    known.join(", ")
                }
            ));
        };
        let raw = match flag.value {
            None => String::new(),
            Some(_) => match it.next() {
                Some(raw) => raw.clone(),
                None => fail(format!("{who}: {arg} requires a value")),
            },
        };
        tokens.push((flag.name, raw));
    }
    tokens
}

/// The checked flag values of one subcommand invocation.
pub struct Args {
    sub: &'static Subcommand,
    values: BTreeMap<&'static str, String>,
}

impl Args {
    /// Checks the tokens `sub` declares (others belong to a sibling under
    /// `all`) with `sub`'s own checks, fills in its defaults and enforces
    /// its required flags.  A repeated flag keeps its last value.
    pub fn parse(sub: &'static Subcommand, tokens: &[(&'static str, String)]) -> Args {
        let name = sub.label();
        let fail = |msg: String| -> ! { usage_error(&msg, &selection_usage(&name, &[sub])) };
        let mut values = BTreeMap::new();
        for flag in sub.flags {
            let typed = tokens.iter().rev().find(|(n, _)| *n == flag.name);
            let raw = match (typed, flag.default) {
                (Some((_, raw)), _) => raw.as_str(),
                (None, Some(default)) => default,
                (None, None) if flag.required => {
                    fail(format!("{name} requires {}", flag.name));
                }
                (None, None) => continue,
            };
            if let Err(e) = (flag.check)(raw) {
                fail(format!("{name}: {}: {e}", flag.name));
            }
            values.insert(flag.name, raw.to_string());
        }
        Args { sub, values }
    }

    /// The invocation with every default filled in, for the run header.
    pub fn effective(&self) -> String {
        let mut out = self.sub.label();
        for (name, raw) in &self.values {
            out.push_str(&format!(" {name}"));
            if !raw.is_empty() {
                out.push_str(&format!(" {raw}")); // a switch has no value
            }
        }
        out
    }

    fn declared(&self, name: &str) {
        assert!(
            self.sub.flags.iter().any(|f| f.name == name),
            "{} reads {name} without declaring it in the subcommand table",
            self.sub.label()
        );
    }

    /// The value of a flag that may be absent.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        self.declared(name);
        self.values.get(name).map(|raw| match raw.parse() {
            Ok(v) => v,
            Err(_) => panic!("{name}: its check admitted '{raw}', which does not parse"),
        })
    }

    /// The value of a flag that has a default or is required.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        self.opt(name)
            .unwrap_or_else(|| panic!("{name} has neither a default nor `required`"))
    }

    /// Whether a switch was given.
    pub fn on(&self, name: &str) -> bool {
        self.declared(name);
        self.values.contains_key(name)
    }
}

/// Value checks.  Each error completes the sentence "`--flag`: …".
pub mod check {
    use std::str::FromStr;

    /// `raw` as a `T`, or the "cannot parse" error.
    pub fn parsed<T: FromStr>(raw: &str) -> Result<T, String> {
        raw.parse().map_err(|_| format!("cannot parse '{raw}'"))
    }

    /// Any text.
    pub fn any(_: &str) -> Result<(), String> {
        Ok(())
    }

    /// Parses as `T`.
    pub fn parses<T: FromStr>(raw: &str) -> Result<(), String> {
        parsed::<T>(raw).map(|_| ())
    }

    /// A count of at least one.
    pub fn positive_count(raw: &str) -> Result<(), String> {
        match parsed::<usize>(raw)? {
            0 => Err("must be positive".into()),
            _ => Ok(()),
        }
    }

    /// A finite float above zero.
    pub fn positive_finite(raw: &str) -> Result<(), String> {
        let v: f64 = parsed(raw)?;
        if v.is_finite() && v > 0.0 {
            Ok(())
        } else {
            Err("must be finite and positive".into())
        }
    }

    /// `host:port`.
    pub fn host_port(raw: &str) -> Result<(), String> {
        if raw.contains(':') {
            Ok(())
        } else {
            Err("must be host:port".into())
        }
    }
}
