//! Flag tables, the parser that checks a command line against them
//! before the command does any work, and the usage text rendered from
//! them. Kept in-tree to stay inside the workspace's dependency budget.

use crate::commands::COMMANDS;
use crate::errors::CliError;
use std::str::FromStr;

/// What a flag's value must look like.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Free text, shown in usage as this metavariable.
    Text(&'static str),
    /// A file or directory, shown as this metavariable; empty is unset.
    Pathname(&'static str),
    /// An unsigned integer in `min..=max`.
    Int(u64, u64),
    /// The same, with an optional k/M/B suffix ([`parse_scaled`]).
    Count(u64, u64),
    /// A float in `min..=max`.
    Float(f64, f64),
    /// `on` or `off`, read as a `bool`.
    OnOff,
    /// One of these names.
    Choice(&'static [&'static str]),
}

/// What a flag is when the command line leaves it out.
#[derive(Clone, Copy, Debug)]
pub enum Unset {
    /// An error: the command line must give it.
    Required,
    /// This value, checked like a given one.
    Value(&'static str),
    /// Unset; the command works it out from the run as this text says.
    Run(&'static str),
    /// Unset; what it drives stays off.
    Off,
}

/// One row of a flag table: `--name`, its kind and its default.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    pub name: &'static str,
    pub kind: Kind,
    pub unset: Unset,
}

/// A table row.
pub const fn flag(name: &'static str, kind: Kind, unset: Unset) -> Flag {
    Flag { name, kind, unset }
}

/// The bound of a flag read as a `usize`.
pub const USIZE: u64 = usize::MAX as u64;

/// One command, `occ trace` action or mode, and its flag table.
pub struct Command {
    /// The words after `occ` (`trace pack`).
    pub name: &'static str,
    /// The flag whose presence selects this entry over the plain one of
    /// the same name (`concurrent --replay`).
    pub mode: Option<&'static str>,
    pub flags: &'static [Flag],
    pub run: fn(&Args) -> Result<(), CliError>,
    /// Its paragraph in the usage text.
    pub about: &'static str,
}

impl Kind {
    /// Check `raw` and return it as [`Args::get`] reads it: numbers in
    /// plain digits, `on|off` as `true|false`.
    fn check(self, raw: &str) -> Result<String, String> {
        match self {
            Kind::Int(min, max) | Kind::Count(min, max) => {
                let n = match self {
                    Kind::Int(..) => raw.parse().map_err(|e| format!("{e}"))?,
                    _ => parse_scaled(raw)?,
                };
                match n {
                    n if n < min => Err(format!("must be at least {min}")),
                    n if n > max => Err(format!("must be at most {max}")),
                    n => Ok(n.to_string()),
                }
            }
            Kind::Float(min, max) => match raw.parse::<f64>().map_err(|e| format!("{e}"))? {
                x if min <= x && x <= max => Ok(raw.to_string()),
                _ => Err(format!("must be in [{min:?}, {max:?}]")),
            },
            Kind::OnOff if raw == "on" || raw == "off" => Ok((raw == "on").to_string()),
            Kind::OnOff => Err("expected on or off".into()),
            Kind::Choice(names) if !names.contains(&raw) => {
                Err(format!("expected one of {}", names.join(", ")))
            }
            Kind::Text(_) | Kind::Pathname(_) | Kind::Choice(_) => Ok(raw.to_string()),
        }
    }
}

/// A command line checked against its command's table.
pub struct Args {
    /// The entry it was checked against; `None` for `occ` or `occ help`.
    pub command: Option<&'static Command>,
    /// `--help` was given: print the command's usage instead.
    pub help: bool,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse the arguments after `argv[0]`: the command's words, `--help`
    /// and `--name value` pairs, checked against the command's table.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, CliError> {
        let usage = |m: String| Err(CliError::Usage(m));
        let (mut words, mut given, mut help) = (Vec::new(), Vec::<(String, String)>::new(), false);
        let mut iter = raw.into_iter();
        while let Some(tok) = iter.next() {
            match tok.strip_prefix("--") {
                _ if tok == "--help" => help = true,
                Some(name) => {
                    let Some(value) = iter.next() else {
                        return usage(format!("flag --{name} needs a value"));
                    };
                    if given.iter().any(|(n, _)| n == name) {
                        return usage(format!("flag --{name} given twice"));
                    }
                    given.push((name.to_string(), value));
                }
                None => words.push(tok),
            }
        }
        let mut args = Args {
            command: None,
            help,
            values: Vec::new(),
        };
        let name = words.join(" ");
        if name.is_empty() || name == "help" {
            return Ok(args);
        }
        let first = words[0].as_str();
        let family = || COMMANDS.iter().filter(|c| word(c.name) == first);
        // `--help` shows a whole family (`occ trace --help`); a run takes
        // the entry whose mode flag is given, else the plain one.
        args.command = if help {
            family().next()
        } else {
            COMMANDS
                .iter()
                .filter(|c| c.name == name)
                .filter(|c| c.mode.is_none_or(|m| given.iter().any(|(n, _)| n == m)))
                .max_by_key(|c| c.mode.is_some())
        };
        let Some(cmd) = args.command else {
            let known: Vec<&str> = family().map(|c| c.name).collect();
            let hint = match known.len() {
                0 => "see `occ --help`".to_string(),
                _ => format!("try {}", known.join(", ")),
            };
            return usage(format!("unknown command 'occ {name}'; {hint}"));
        };
        if help {
            return Ok(args);
        }
        for (name, _) in &given {
            if cmd.flags.iter().all(|f| f.name != name) {
                return usage(unknown_flag(cmd, name));
            }
        }
        for f in cmd.flags {
            let given = given
                .iter()
                .find(|(n, _)| n == f.name)
                .map(|(_, v)| v.as_str());
            let empty_path = given == Some("") && matches!(f.kind, Kind::Pathname(_));
            let raw = match (given.filter(|_| !empty_path), f.unset) {
                (Some(raw), _) | (None, Unset::Value(raw)) => raw,
                (None, Unset::Required) => {
                    return usage(format!("missing required flag --{}", f.name))
                }
                (None, Unset::Run(_) | Unset::Off) => continue,
            };
            match f.kind.check(raw) {
                Ok(value) => args.values.push((f.name, value)),
                Err(e) => return usage(format!("bad value for --{} '{raw}': {e}", f.name)),
            }
        }
        Ok(args)
    }

    /// The checked value of `--name`; `None` if it is unset and its row
    /// says [`Unset::Run`] or [`Unset::Off`].
    pub fn get_str(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.command
                .is_some_and(|c| c.flags.iter().any(|f| f.name == name)),
            "--{name} is not in its command's flag table"
        );
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// [`Args::get_str`] read as a number, or as a `bool` for `on|off`.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let parsed = self.get_str(name)?.parse();
        Some(parsed.unwrap_or_else(|_| panic!("--{name} read as the wrong type")))
    }

    /// [`Args::get_str`] of a flag that always has a value.
    pub fn str(&self, name: &str) -> &str {
        self.get_str(name)
            .unwrap_or_else(|| panic!("--{name} has no default"))
    }

    /// [`Args::get`] of a flag that always has a value.
    pub fn val<T: FromStr>(&self, name: &str) -> T {
        self.get(name)
            .unwrap_or_else(|| panic!("--{name} has no default"))
    }
}

/// The error for `--name`, which `cmd`'s table lacks, naming the nearest
/// flag it has: one containing `name` (`--shards` → `--table-shards`),
/// else the closest spelling.
fn unknown_flag(cmd: &Command, name: &str) -> String {
    let title = format!(
        "occ {}{}",
        cmd.name,
        cmd.mode.map(|m| format!(" --{m}")).unwrap_or_default()
    );
    let key = |f: &&Flag| (!f.name.contains(name), edit_distance(f.name, name));
    match cmd.flags.iter().min_by_key(key) {
        Some(f) => format!("{title} has no flag --{name}; did you mean --{}?", f.name),
        None => format!("{title} takes no flags (got --{name})"),
    }
}

/// The subcommand of a table entry's name (`trace` of `trace pack`).
fn word(name: &str) -> &str {
    name.split(' ').next().unwrap_or(name)
}

/// Levenshtein distance over bytes.
fn edit_distance(a: &str, b: &str) -> usize {
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.bytes().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, cb) in b.bytes().enumerate() {
            let next = (diag + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

const USAGE_TAIL: &str = "
EXIT CODES:
  0 ok · 1 error · 2 usage · 3 i/o · 4 unparseable file · 5 simulation fault
  6 conformance FAIL (a checked bound was violated)
  7 degraded (a supervised fleet quarantined a shard; report still written)

POLICIES:
  convex (alias alg-discrete: the paper's algorithm), lru, fifo, lfu,
  marking, lru2, random, greedy-dual, cost-greedy, belady (offline),
  belady-cost (offline)
";

/// The usage text; with `only`, just the entries of that command (all
/// its `occ trace` actions and modes).
pub fn usage(only: Option<&Command>) -> String {
    let entries = COMMANDS
        .iter()
        .filter(|c| only.is_none_or(|o| word(o.name) == word(c.name)));
    let body: String = entries.map(section).collect();
    match only {
        Some(_) => body,
        None => format!("occ — online caching with convex costs\n\nUSAGE:\n{body}{USAGE_TAIL}"),
    }
}

/// One entry's synopsis, generated from its table, then its paragraph
/// and the defaults.
fn section(cmd: &Command) -> String {
    let mut synopsis = vec![format!("occ {}", cmd.name)];
    let mut defaults = Vec::new();
    for f in cmd.flags {
        let meta = match f.kind {
            Kind::Text(m) | Kind::Pathname(m) => m.to_string(),
            Kind::Int(..) | Kind::Count(..) | Kind::Float(..) => "N".into(),
            Kind::OnOff => "on|off".into(),
            Kind::Choice(names) => names.join("|"),
        };
        synopsis.push(match f.unset {
            Unset::Required => format!("--{} {meta}", f.name),
            _ => format!("[--{} {meta}]", f.name),
        });
        if let Unset::Value(d) | Unset::Run(d) = f.unset {
            defaults.push(format!("--{} {d}", f.name));
        }
    }
    let about = match defaults.len() {
        0 => cmd.about.to_string(),
        _ => format!("{} Defaults: {}.", cmd.about, defaults.join(", ")),
    };
    wrap(synopsis.into_iter(), "  ") + &wrap(about.split_whitespace().map(String::from), INDENT)
}

const INDENT: &str = "               ";

/// Fill lines of at most 78 columns with `words`, the first line
/// starting with `first`, the rest with [`INDENT`].
fn wrap(words: impl Iterator<Item = String>, first: &str) -> String {
    let (mut out, mut line) = (String::new(), first.to_string());
    for w in words {
        if line.trim_start().is_empty() {
            line += &w;
        } else if line.len() + 1 + w.len() > 78 {
            out += &format!("{line}\n");
            line = format!("{INDENT}{w}");
        } else {
            line += &format!(" {w}");
        }
    }
    out + &line + "\n"
}

/// Parse `"123"`, `"500k"`, `"5M"`, `"1B"` (case-insensitive suffix,
/// `G` accepted as a synonym for `B`) into a `u64`, rejecting overflow.
pub fn parse_scaled(text: &str) -> Result<u64, String> {
    let text = text.trim();
    let (digits, mult) = match text.char_indices().last() {
        Some((i, c)) if c.is_ascii_alphabetic() => {
            let mult = match c.to_ascii_lowercase() {
                'k' => 1_000u64,
                'm' => 1_000_000,
                'b' | 'g' => 1_000_000_000,
                _ => return Err(format!("unknown magnitude suffix '{c}' (use k, M, or B)")),
            };
            (&text[..i], mult)
        }
        _ => (text, 1),
    };
    if digits.is_empty() {
        return Err("expected digits before the suffix".into());
    }
    // `u64::from_str` tolerates a leading `+`; sizes are bare digits
    // only, so `+5M`, `-5`, and embedded whitespace all fail here.
    if !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("invalid digit string '{digits}' (digits only)"));
    }
    let base: u64 = digits
        .parse()
        .map_err(|e| format!("invalid digit string '{digits}': {e}"))?;
    base.checked_mul(mult)
        .ok_or_else(|| format!("'{text}' overflows a u64"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, CliError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    fn error(tokens: &[&str]) -> String {
        match parse(tokens) {
            Ok(_) => panic!("{tokens:?} parsed"),
            Err(e) => {
                assert_eq!(e.exit_code(), 2, "{tokens:?}: {e}");
                e.to_string()
            }
        }
    }

    #[test]
    fn command_and_flags() {
        let a = parse(&[
            "run",
            "--scenario",
            "two-tier",
            "--k",
            "8",
            "--policy",
            "lru",
        ])
        .unwrap();
        assert_eq!(a.command.map(|c| c.name), Some("run"));
        assert_eq!(a.val::<usize>("k"), 8);
        assert_eq!(a.str("policy"), "lru");
        // Unset flags take their table default, parsed like a given value.
        assert_eq!(a.val::<usize>("len"), 60_000);
        assert_eq!(a.get_str("trace"), None);
    }

    #[test]
    fn missing_value_is_error() {
        error(&["run", "--scenario", "two-tier", "--k"]);
    }

    #[test]
    fn duplicate_flag_is_error() {
        error(&["run", "--scenario", "two-tier", "--k", "1", "--k", "2"]);
    }

    #[test]
    fn words_name_the_action_and_a_third_is_an_error() {
        let a = parse(&["trace", "pack", "--in", "x", "--out", "y"]).unwrap();
        assert_eq!(a.command.map(|c| c.name), Some("trace pack"));
        assert!(error(&["trace", "pack", "again", "--in", "x", "--out", "y"]).contains("try"));
        assert!(error(&["trace", "--in", "x"]).contains("trace pack"));
        assert!(error(&["scenarios", "extra"]).contains("unknown command"));
        assert!(error(&["nope"]).contains("occ --help"));
    }

    #[test]
    fn bad_number_reported() {
        error(&["run", "--scenario", "two-tier", "--k", "many"]);
        error(&["run", "--scenario", "two-tier", "--k", "0"]);
        error(&["concurrent", "--scenario", "two-tier", "--threads", "1025"]);
        error(&["conformance", "--weaken", "0"]);
        error(&["conformance", "--weaken", "NaN"]);
        error(&[
            "observe",
            "--scenario",
            "two-tier",
            "--chaos-page-rate",
            "1.5",
        ]);
    }

    #[test]
    fn required_flag() {
        assert!(error(&["run"]).contains("--scenario"));
        assert!(error(&["resume", "--scenario", "two-tier"]).contains("--from"));
    }

    #[test]
    fn choices_and_on_off_are_checked() {
        error(&["soak", "--scenario", "two-tier", "--timing", "maybe"]);
        error(&["fleet", "--scenario", "two-tier", "--format", "yaml"]);
        error(&[
            "fleet",
            "--scenario",
            "two-tier",
            "--supervise",
            "sometimes",
        ]);
        let a = parse(&["soak", "--scenario", "two-tier", "--heartbeat", "off"]).unwrap();
        assert!(!a.val::<bool>("heartbeat"));
        assert!(!a.val::<bool>("timing"), "--timing defaults to off");
        // An empty path is no path.
        let a = parse(&["soak", "--scenario", "two-tier", "--series", ""]).unwrap();
        assert_eq!(a.get_str("series"), None);
    }

    #[test]
    fn unknown_flags_name_the_nearest_one() {
        for (tokens, nearest) in [
            (
                &["concurrent", "--scenario", "x", "--shards", "1"][..],
                "--table-shards",
            ),
            (&["soak", "--scenario", "x", "--windw", "1k"], "--window"),
            (&["run", "--scenario", "x", "--polcy", "lru"], "--policy"),
            (
                &["concurrent", "--replay", "s", "--threads", "9"],
                "--format",
            ),
        ] {
            let e = error(tokens);
            assert!(
                e.contains(&format!("did you mean {nearest}?")),
                "{tokens:?}: {e}"
            );
        }
        assert!(error(&["scenarios", "--bogus", "1"]).contains("takes no flags"));
        // A mode's table holds only its own flags.
        assert!(
            error(&["report", "--in", "a", "--series", "b"]).contains("--series has no flag --in")
        );
    }

    #[test]
    fn help_takes_no_value_and_selects_the_command() {
        let a = parse(&["--help"]).unwrap();
        assert!(a.help && a.command.is_none());
        let a = parse(&["soak", "--help", "--windw", "x"]).unwrap();
        assert!(a.help);
        assert_eq!(a.command.map(|c| c.name), Some("soak"));
        assert!(usage(a.command).starts_with("  occ soak "));
        let trace = usage(parse(&["trace", "--help"]).unwrap().command);
        for action in ["pack", "unpack", "import"] {
            assert!(trace.contains(&format!("occ trace {action} ")), "{trace}");
        }
        assert!(parse(&["help"]).unwrap().command.is_none());
    }

    /// A valid value of `kind`.
    fn valid(kind: Kind) -> String {
        match kind {
            Kind::Text(_) | Kind::Pathname(_) => "x".into(),
            Kind::Int(min, _) | Kind::Count(min, _) => min.to_string(),
            Kind::Float(min, _) => min.to_string(),
            Kind::OnOff => "on".into(),
            Kind::Choice(names) => names[0].into(),
        }
    }

    #[test]
    fn every_table_parses_and_its_usage_names_every_flag() {
        for cmd in COMMANDS {
            let text = section(cmd);
            for (i, f) in cmd.flags.iter().enumerate() {
                assert!(
                    cmd.flags[..i].iter().all(|g| g.name != f.name),
                    "occ {} lists --{} twice",
                    cmd.name,
                    f.name
                );
                assert!(text.contains(&format!("--{} ", f.name)), "{text}");
            }
            assert_eq!(cmd.mode, cmd.mode.and(cmd.flags.first().map(|f| f.name)));
            let mut all: Vec<String> = cmd.name.split(' ').map(String::from).collect();
            let mut required = all.clone();
            for f in cmd.flags {
                let pair = [format!("--{}", f.name), valid(f.kind)];
                if let Unset::Required = f.unset {
                    required.extend(pair.clone());
                }
                all.extend(pair);
            }
            // Every flag set, and only the required ones (so every default
            // is checked against its own row).
            for tokens in [all, required] {
                let a = Args::parse(tokens.clone()).unwrap_or_else(|e| panic!("{tokens:?}: {e}"));
                let picked = a.command.map(|c| (c.name, c.mode));
                assert_eq!(picked, Some((cmd.name, cmd.mode)), "{tokens:?}");
                for f in cmd.flags {
                    a.get_str(f.name);
                }
            }
        }
    }

    #[test]
    fn literal_defaults_match_the_code_they_stand_for() {
        let row = |cmd: &str, name: &str| {
            let c = COMMANDS.iter().find(|c| c.name == cmd).unwrap();
            c.flags.iter().find(|f| f.name == name).unwrap().unset
        };
        let batch = occ_sim::DEFAULT_BATCH_SIZE.to_string();
        assert!(matches!(row("fleet", "batch"), Unset::Value(v) if v == batch));
        assert!(matches!(
            row("observe", "chaos-seed"),
            Unset::Value("805381")
        ));
        assert_eq!(805381, 0xC4A05, "the historical default chaos seed");
    }

    #[test]
    fn scaled_numbers() {
        assert_eq!(parse_scaled("123").unwrap(), 123);
        assert_eq!(parse_scaled("500k").unwrap(), 500_000);
        assert_eq!(parse_scaled("500K").unwrap(), 500_000);
        assert_eq!(parse_scaled("5M").unwrap(), 5_000_000);
        assert_eq!(parse_scaled("1B").unwrap(), 1_000_000_000);
        assert_eq!(parse_scaled("2g").unwrap(), 2_000_000_000);
        assert_eq!(parse_scaled("0").unwrap(), 0);
        assert!(parse_scaled("").is_err());
        assert!(parse_scaled("k").is_err());
        assert!(parse_scaled("5x").is_err());
        assert!(parse_scaled("1.5M").is_err());
        assert!(parse_scaled("99999999999999999999B").is_err());
    }

    #[test]
    fn scaled_boundaries_and_garbage() {
        // Exact u64::MAX is representable; one past it is not.
        assert_eq!(parse_scaled("18446744073709551615").unwrap(), u64::MAX);
        assert!(parse_scaled("18446744073709551616").is_err());
        // Largest value whose k-scaling still fits, and the first that
        // does not — `checked_mul` must catch the latter, not wrap.
        assert_eq!(
            parse_scaled("18446744073709551k").unwrap(),
            18_446_744_073_709_551_000
        );
        assert!(parse_scaled("18446744073709552k").is_err());
        // 20e9 * 1e9 overflows: the motivating `--len 20000000000B` case.
        assert!(parse_scaled("20000000000B").is_err());
        // Signs, inner whitespace, and hex are not sizes.
        assert!(parse_scaled("+5M").is_err());
        assert!(parse_scaled("-5").is_err());
        assert!(parse_scaled("5 M").is_err());
        assert!(parse_scaled("0x10").is_err());

        let a = parse(&["soak", "--scenario", "two-tier", "--len", "10M"]).unwrap();
        assert_eq!(a.val::<u64>("len"), 10_000_000);
        assert_eq!(a.val::<u64>("window"), 1_000_000, "the table default");
        error(&["soak", "--scenario", "two-tier", "--len", "ten"]);
        error(&[
            "generate",
            "--scenario",
            "two-tier",
            "--out",
            "x",
            "--len",
            "20000000000B",
        ]);
    }
}
