//! The experiment binaries' flag reader.
//!
//! Each binary lists its switches (`--quick`) and its valued flags
//! (`--jobs N`), and [`Flags::parse`] reads the command line against
//! them. A command line the binary cannot honour ends the process with
//! status 2 and a message naming the flag and the value, before any run
//! starts: an unknown flag, a valued flag without its value, and a value
//! that does not parse ([`Flags::parsed`]) or names nothing the binary
//! knows ([`usage_error`]).

use std::fmt::Display;
use std::str::FromStr;

/// One binary's command line, read against the flags it accepts.
#[derive(Debug)]
pub struct Flags {
    /// Each flag given, with its value when it takes one, in
    /// command-line order.
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Reads the process's arguments against the `switches` and the
    /// `valued` flags. A valued flag takes the next argument as its
    /// value, unless that argument is a flag itself. Exits with status 2
    /// on an argument that is none of the flags, or a valued flag with no
    /// value after it.
    #[must_use]
    pub fn parse(switches: &[&str], valued: &[&str]) -> Flags {
        Flags::read(std::env::args().skip(1), switches, valued).unwrap_or_else(|e| usage_error(e))
    }

    /// [`Flags::parse`] on `args`, returning the error instead of
    /// exiting.
    fn read(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Flags, String> {
        let mut given = Vec::new();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            if switches.contains(&arg.as_str()) {
                given.push((arg, None));
            } else if valued.contains(&arg.as_str()) {
                let Some(value) = args.next_if(|v| !v.starts_with("--")) else {
                    return Err(format!("`{arg}` needs a value"));
                };
                given.push((arg, Some(value)));
            } else {
                return Err(format!(
                    "unknown flag `{arg}` (accepted: {} {})",
                    switches.join(" "),
                    valued.join(" ")
                ));
            }
        }
        Ok(Flags { given })
    }

    /// Whether the switch `name` was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| flag == name)
    }

    /// Every value given to `name`, in command-line order.
    pub fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.given
            .iter()
            .filter(move |(flag, _)| flag == name)
            .filter_map(|(_, value)| value.as_deref())
    }

    /// The first value given to `name`.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        let (_, value) = self.given.iter().find(|(flag, _)| flag == name)?;
        value.as_deref()
    }

    /// The first value given to `name`, parsed; exits with status 2 when
    /// it does not parse.
    #[must_use]
    pub fn parsed<T: FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        let value = self.value(name)?;
        match value.parse() {
            Ok(parsed) => Some(parsed),
            Err(e) => usage_error(format!("`{name}` cannot take `{value}`: {e}")),
        }
    }

    /// The worker count: `--jobs N`, or the hardware's parallelism when
    /// it is absent or `0` (see `eua_sim::resolve_jobs`).
    #[must_use]
    pub fn jobs(&self) -> usize {
        eua_sim::resolve_jobs(self.parsed("--jobs"))
    }
}

/// Reports a command line the binary cannot honour on stderr and exits
/// with status 2.
pub fn usage_error(message: impl Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn read(args: &[&str]) -> Result<Flags, String> {
        Flags::read(
            args.iter().map(|a| (*a).to_string()),
            &["--quick"],
            &["--jobs", "--energy"],
        )
    }

    #[test]
    fn switches_and_values_are_read_in_order() {
        let flags = read(&["--energy", "e1", "--quick", "--energy", "e3"]).unwrap();
        assert!(flags.has("--quick"));
        assert_eq!(flags.values("--energy").collect::<Vec<_>>(), ["e1", "e3"]);
        assert_eq!(flags.value("--jobs"), None);
        assert_eq!(flags.parsed::<usize>("--jobs"), None);
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        assert!(read(&["--check"])
            .unwrap_err()
            .contains("unknown flag `--check`"));
        assert!(read(&["quick"])
            .unwrap_err()
            .contains("unknown flag `quick`"));
        assert!(read(&["--jobs"])
            .unwrap_err()
            .contains("`--jobs` needs a value"));
        assert!(read(&["--jobs", "--quick"])
            .unwrap_err()
            .contains("`--jobs` needs a value"));
    }
}
