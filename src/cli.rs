//! The one flag parser behind `brisk-ismd`, `brisk-load` and `brisk-query`.
//!
//! Each binary declares its flags once, as a table of [`Flag`] rows, and
//! parses straight into its config structs: a flag that is not given keeps
//! the struct's `Default`, so `brisk-core`'s config types stay the single
//! home of defaults. `--help` is rendered from the same table, and every
//! value error names the flag it came from.

use brisk_core::Result;
#[cfg(unix)]
use brisk_net::UdsTransport;
use brisk_net::{Connection, Listener, TcpTransport, Transport};
use std::fmt::{self, Display};
use std::str::FromStr;
use std::time::Duration;

/// What a setter returns: `Err` carries the reason; the parser prefixes the
/// flag's name.
pub type Verdict = std::result::Result<(), String>;

/// One row of a flag table: `(spelling, value hint, setter)`.
///
/// An empty hint makes the flag a switch (its setter sees `""`); a spelling
/// without a leading `-` is a positional argument, taken once.
pub type Flag<A> = (&'static str, &'static str, fn(&mut A, &str) -> Verdict);

/// Store a converted flag value into `slot`, or report why there is none.
pub fn put<T, E: Display>(slot: &mut T, value: std::result::Result<T, E>) -> Verdict {
    *slot = value.map_err(|e| e.to_string())?;
    Ok(())
}

/// Parse a flag's value.
pub fn val<T: FromStr>(v: &str) -> std::result::Result<T, String>
where
    T::Err: Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// Parse a flag's value as a count of milliseconds.
pub fn ms(v: &str) -> std::result::Result<Duration, String> {
    val(v).map(Duration::from_millis)
}

/// Turn a switch on.
pub fn on(slot: &mut bool) -> Verdict {
    *slot = true;
    Ok(())
}

/// Parse `argv` into `into` through `flags`. `--help` / `-h` returns the
/// usage text as the error, so callers print both the same way.
fn parse<A>(
    name: &str,
    flags: &[Flag<A>],
    mut into: A,
    argv: impl IntoIterator<Item = String>,
) -> std::result::Result<A, String> {
    let mut argv = argv.into_iter();
    let mut positionals = flags.iter().filter(|(flag, ..)| !flag.starts_with('-'));
    while let Some(arg) = argv.next() {
        let row = if arg.starts_with('-') {
            flags.iter().find(|(flag, ..)| *flag == arg)
        } else {
            positionals.next()
        };
        let Some(&(flag, hint, setter)) = row else {
            return Err(match arg.as_str() {
                "--help" | "-h" => usage(name, flags),
                _ => format!("unknown flag {arg:?}"),
            });
        };
        let value = if !flag.starts_with('-') {
            arg
        } else if hint.is_empty() {
            String::new()
        } else {
            argv.next()
                .ok_or_else(|| format!("missing value for {flag}"))?
        };
        setter(&mut into, &value).map_err(|e| format!("bad {flag}: {e}"))?;
    }
    Ok(into)
}

/// Parse the process arguments, then `check` the result. A usage error or
/// `--help` goes to stderr and exits 2.
pub fn parse_env<A>(name: &str, flags: &[Flag<A>], defaults: A, check: fn(&A) -> Verdict) -> A {
    parse(name, flags, defaults, std::env::args().skip(1))
        .and_then(|args| check(&args).map(|()| args))
        .unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
}

/// The `--help` text: positionals on the usage line, then one flag a line.
fn usage<A>(name: &str, flags: &[Flag<A>]) -> String {
    let (mut synopsis, mut lines) = (format!("usage: {name}"), String::new());
    for (flag, hint, _) in flags {
        if flag.starts_with('-') {
            lines.push_str(format!("\n  {flag} {hint}").trim_end());
        } else {
            synopsis = format!("{synopsis} {flag}");
        }
    }
    format!("{synopsis} [FLAG]...{lines}")
}

/// Where `brisk-ismd` listens and `brisk-load` connects: `--tcp HOST:PORT`
/// (the default, `127.0.0.1:7787`) or, on unix, `--uds PATH`.
#[derive(Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP `host:port`.
    Tcp(String),
    /// A unix-domain socket path.
    #[cfg(unix)]
    Uds(String),
}

impl Default for Endpoint {
    fn default() -> Self {
        Endpoint::Tcp("127.0.0.1:7787".into())
    }
}

impl Endpoint {
    /// The setter behind `--tcp` and `--uds`: the two exclude each other.
    pub fn set(slot: &mut Option<Endpoint>, endpoint: Endpoint) -> Verdict {
        if let Some(old) = slot {
            if std::mem::discriminant(old) != std::mem::discriminant(&endpoint) {
                return Err("give --tcp or --uds, not both".into());
            }
        }
        *slot = Some(endpoint);
        Ok(())
    }

    /// Bind a listener here.
    pub fn listen(&self) -> Result<Box<dyn Listener>> {
        let (transport, addr) = self.parts();
        transport.listen(addr)
    }

    /// Connect to a listener here.
    pub fn connect(&self) -> Result<Box<dyn Connection>> {
        let (transport, addr) = self.parts();
        transport.connect(addr)
    }

    fn parts(&self) -> (&'static dyn Transport, &str) {
        match self {
            Endpoint::Tcp(addr) => (&TcpTransport, addr),
            #[cfg(unix)]
            Endpoint::Uds(path) => (&UdsTransport, path),
        }
    }
}

impl Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => f.write_str(addr),
            #[cfg(unix)]
            Endpoint::Uds(path) => write!(f, "unix socket {path}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Args {
        dir: String,
        n: u32,
        every: Option<Duration>,
        quiet: bool,
        endpoint: Option<Endpoint>,
    }

    const FLAGS: &[Flag<Args>] = &[
        ("DIR", "", |a, v| put(&mut a.dir, val(v))),
        ("--n", "N", |a, v| put(&mut a.n, val(v))),
        ("--every-ms", "MS", |a, v| {
            put(&mut a.every, ms(v).map(Some))
        }),
        ("--quiet", "", |a, _| on(&mut a.quiet)),
        ("--tcp", "HOST:PORT", |a, v| {
            Endpoint::set(&mut a.endpoint, Endpoint::Tcp(v.into()))
        }),
        #[cfg(unix)]
        ("--uds", "PATH", |a, v| {
            Endpoint::set(&mut a.endpoint, Endpoint::Uds(v.into()))
        }),
    ];

    fn run(argv: &[&str]) -> std::result::Result<Args, String> {
        parse(
            "t",
            FLAGS,
            Args::default(),
            argv.iter().map(|s| s.to_string()),
        )
    }

    #[test]
    fn flags_and_one_positional_land_in_the_struct() {
        let a = run(&["d", "--n", "7", "--quiet", "--every-ms", "250"]).unwrap();
        assert_eq!(
            a,
            Args {
                dir: "d".into(),
                n: 7,
                every: Some(Duration::from_millis(250)),
                quiet: true,
                endpoint: None,
            }
        );
        assert_eq!(
            run(&[]).unwrap(),
            Args::default(),
            "absent flags keep defaults"
        );
    }

    #[test]
    fn usage_errors_name_what_went_wrong() {
        assert_eq!(
            run(&["--n", "x"]).unwrap_err(),
            "bad --n: invalid digit found in string"
        );
        assert_eq!(run(&["--n"]).unwrap_err(), "missing value for --n");
        assert_eq!(run(&["--m"]).unwrap_err(), "unknown flag \"--m\"");
        assert_eq!(run(&["a", "b"]).unwrap_err(), "unknown flag \"b\"");
    }

    #[test]
    fn help_lists_every_row() {
        let help = run(&["--n", "1", "-h"]).unwrap_err();
        assert_eq!(help, usage("t", FLAGS));
        assert!(help.starts_with("usage: t DIR [FLAG]...\n  --n N\n  --every-ms MS\n  --quiet\n"));
        assert_eq!(run(&["--help"]).unwrap_err(), help);
    }

    #[test]
    fn tcp_and_uds_exclude_each_other_but_repeat_last_wins() {
        let a = run(&["--tcp", "h:1", "--tcp", "h:2"]).unwrap();
        assert_eq!(a.endpoint, Some(Endpoint::Tcp("h:2".into())));
        #[cfg(unix)]
        assert_eq!(
            run(&["--tcp", "h:1", "--uds", "/s"]).unwrap_err(),
            "bad --uds: give --tcp or --uds, not both"
        );
    }
}
