//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand name.
    pub command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Argument parsing failure with a user-facing message.
#[derive(Debug)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse `argv[1..]`: first token is the subcommand, the rest are
    /// `--key value` pairs or bare `--switch` flags.
    pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
        let command = argv
            .first()
            .cloned()
            .ok_or_else(|| ArgError("missing subcommand".into()))?;
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 1;
        while i < argv.len() {
            let tok = &argv[i];
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| ArgError(format!("expected --option, got {tok:?}")))?;
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                options.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(Args {
            command,
            options,
            flags,
        })
    }

    /// Required string option.
    pub fn req(&self, key: &str) -> Result<String, ArgError> {
        self.options
            .get(key)
            .cloned()
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// Optional string option.
    pub fn opt(&self, key: &str) -> Option<String> {
        self.options.get(key).cloned()
    }

    /// Optional typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse {v:?}"))),
        }
    }

    /// Reject the first (by name) option or switch not named in the
    /// whitespace-separated `known`.
    pub fn only(&self, known: &str) -> Result<(), ArgError> {
        let given = self.options.keys().chain(&self.flags);
        let first = given
            .filter(|&k| !known.split_whitespace().any(|o| o == k))
            .min();
        match first {
            Some(k) => Err(ArgError(format!(
                "unknown option --{k} for {}",
                self.command
            ))),
            None => Ok(()),
        }
    }

    /// Bare `--switch` presence.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Args {
        let v: Vec<String> = toks.iter().map(|s| s.to_string()).collect();
        Args::parse(&v).unwrap()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["partition", "--k", "27", "--unpaired", "--input", "x.fastq"]);
        assert_eq!(a.command, "partition");
        assert_eq!(a.req("input").unwrap(), "x.fastq");
        assert_eq!(a.get_or("k", 0usize).unwrap(), 27);
        assert!(a.flag("unpaired"));
        assert!(!a.flag("paired"));
    }

    #[test]
    fn missing_required_errors() {
        let a = parse(&["index"]);
        assert!(a.req("input").is_err());
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["x"]);
        assert_eq!(a.get_or("threads", 4usize).unwrap(), 4);
    }

    #[test]
    fn bad_numbers_error() {
        let a = parse(&["x", "--k", "notanumber"]);
        assert!(a.get_or("k", 1usize).is_err());
    }

    #[test]
    fn only_rejects_unknown_options_and_switches() {
        let a = parse(&["partition", "--k", "27", "--unpaired"]);
        assert!(a.only("k unpaired").is_ok());
        let err = a.only("k").unwrap_err().to_string();
        assert_eq!(err, "unknown option --unpaired for partition");
        let err = a.only("unpaired kf").unwrap_err().to_string();
        assert_eq!(err, "unknown option --k for partition");
    }

    #[test]
    fn empty_argv_errors() {
        assert!(Args::parse(&[]).is_err());
    }

    #[test]
    fn non_option_token_errors() {
        let v = vec!["cmd".to_string(), "oops".to_string()];
        assert!(Args::parse(&v).is_err());
    }
}
