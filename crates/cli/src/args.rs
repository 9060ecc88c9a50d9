//! A minimal dependency-free argument parser: `--key value` flags and
//! `--switch` booleans after a subcommand word.
//!
//! Parsing is strict: duplicate flags and stray positionals are usage
//! errors that name the offending token, and each subcommand declares its
//! accepted flags/switches via [`Args::validate`] so misspelled options
//! fail loudly instead of being silently ignored.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// A token starting with `--` that is followed by a non-flag token
    /// becomes a key/value flag; otherwise it is a boolean switch. Errors
    /// on a repeated `--key` and on any positional beyond the subcommand,
    /// naming the offending token.
    pub fn parse<I, S>(raw: I) -> Result<Args, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let tokens: Vec<String> = raw.into_iter().map(Into::into).collect();
        let mut args = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(key) = t.strip_prefix("--") {
                if args.flags.contains_key(key) || args.switches.iter().any(|s| s == key) {
                    return Err(format!("duplicate flag --{key}"));
                }
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    args.flags.insert(key.to_owned(), tokens[i + 1].clone());
                    i += 2;
                } else {
                    args.switches.push(key.to_owned());
                    i += 1;
                }
            } else {
                if !args.command.is_empty() {
                    return Err(format!("unexpected argument `{t}`"));
                }
                args.command = t.clone();
                i += 1;
            }
        }
        Ok(args)
    }

    /// Checks every parsed option against the subcommand's accepted
    /// `flags` (take a value) and `switches` (boolean). Reports unknown
    /// options by name, switches that were given a value, and flags that
    /// are missing one.
    pub fn validate(&self, flags: &[&str], switches: &[&str]) -> Result<(), String> {
        for key in self.flags.keys() {
            if switches.iter().any(|s| s == key) {
                return Err(format!("switch --{key} does not take a value"));
            }
            if !flags.iter().any(|f| f == key) {
                return Err(format!("unknown flag --{key}"));
            }
        }
        for key in &self.switches {
            if flags.iter().any(|f| f == key) {
                return Err(format!("flag --{key} requires a value"));
            }
            if !switches.iter().any(|s| s == key) {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(())
    }

    /// String flag value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Required string flag, with a usage error message.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// Parsed numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key}: cannot parse `{v}`")),
        }
    }

    /// Parsed f64 flag that must be finite and strictly positive.
    /// `f64::from_str` happily accepts `nan` and `inf`, which would
    /// poison any geometry math downstream (e.g. `--scale nan` sizing a
    /// synthetic design) — reject them here with a usage error naming the
    /// flag instead.
    pub fn pos_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        let v = self.num(key, default)?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!(
                "flag --{key}: must be a positive finite number, got `{v}`"
            ));
        }
        Ok(v)
    }

    /// Parsed f64 flag that must be a probability in `[0, 1]` (pAVF
    /// values). Rejects `nan`, infinities, and out-of-range values.
    pub fn unit_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        let v = self.num(key, default)?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!(
                "flag --{key}: must be a probability in [0, 1], got `{v}`"
            ));
        }
        Ok(v)
    }

    /// Parsed usize flag that must be at least 1.
    pub fn pos_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        let v = self.num(key, default)?;
        if v == 0 {
            return Err(format!("flag --{key}: must be at least 1"));
        }
        Ok(v)
    }

    /// Boolean switch presence.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_flags_and_switches() {
        let a = Args::parse(["sart", "--design", "d.exlif", "--verbose", "--iters", "20"]).unwrap();
        assert_eq!(a.command, "sart");
        assert_eq!(a.get("design"), Some("d.exlif"));
        assert!(a.has("verbose"));
        assert_eq!(a.num::<usize>("iters", 0).unwrap(), 20);
    }

    #[test]
    fn missing_and_default_values() {
        let a = Args::parse(["gen"]).unwrap();
        assert_eq!(a.get("x"), None);
        assert!(a.require("x").is_err());
        assert_eq!(a.num::<u64>("seed", 42).unwrap(), 42);
        assert!(!a.has("force"));
    }

    #[test]
    fn bad_number_reports_flag() {
        let a = Args::parse(["gen", "--seed", "abc"]).unwrap();
        let e = a.num::<u64>("seed", 0).unwrap_err();
        assert!(e.contains("--seed"));
    }

    #[test]
    fn trailing_switch() {
        let a = Args::parse(["flow", "--full"]).unwrap();
        assert!(a.has("full"));
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        let e = Args::parse(["sart", "--threads", "4", "--threads", "8"]).unwrap_err();
        assert_eq!(e, "duplicate flag --threads");
    }

    #[test]
    fn duplicate_switch_is_an_error() {
        let e = Args::parse(["flow", "--metrics", "--metrics"]).unwrap_err();
        assert_eq!(e, "duplicate flag --metrics");
    }

    #[test]
    fn flag_repeated_as_switch_is_an_error() {
        let e = Args::parse(["sart", "--threads", "4", "--threads"]).unwrap_err();
        assert_eq!(e, "duplicate flag --threads");
    }

    #[test]
    fn stray_positional_is_an_error() {
        let e = Args::parse(["gen", "extra.exlif"]).unwrap_err();
        assert_eq!(e, "unexpected argument `extra.exlif`");
    }

    #[test]
    fn positional_after_flags_is_an_error() {
        let e = Args::parse(["gen", "--seed", "1", "oops"]).unwrap_err();
        assert_eq!(e, "unexpected argument `oops`");
    }

    #[test]
    fn validate_rejects_misspelled_flag() {
        let a = Args::parse(["gen", "--seeed", "7"]).unwrap();
        let e = a.validate(&["seed", "out"], &["metrics"]).unwrap_err();
        assert_eq!(e, "unknown flag --seeed");
    }

    #[test]
    fn validate_rejects_misspelled_switch() {
        let a = Args::parse(["flow", "--metrix"]).unwrap();
        let e = a.validate(&["seed"], &["metrics"]).unwrap_err();
        assert_eq!(e, "unknown flag --metrix");
    }

    #[test]
    fn validate_rejects_switch_with_value() {
        let a = Args::parse(["ace", "--conservative", "yes"]).unwrap();
        let e = a.validate(&["out"], &["conservative"]).unwrap_err();
        assert_eq!(e, "switch --conservative does not take a value");
    }

    #[test]
    fn validate_rejects_flag_without_value() {
        let a = Args::parse(["gen", "--out"]).unwrap();
        let e = a.validate(&["out"], &["metrics"]).unwrap_err();
        assert_eq!(e, "flag --out requires a value");
    }

    #[test]
    fn validate_accepts_known_options() {
        let a = Args::parse(["sweep", "--threads", "4", "--conservative", "--metrics"]).unwrap();
        a.validate(&["threads", "design"], &["conservative", "metrics"])
            .unwrap();
    }

    #[test]
    fn pos_f64_rejects_nan_inf_zero_and_negatives() {
        for bad in ["nan", "inf", "-inf", "0", "-1.5"] {
            let a = Args::parse(["gen", "--scale", bad]).unwrap();
            let e = a.pos_f64("scale", 1.0).unwrap_err();
            assert!(e.contains("--scale"), "{bad}: {e}");
        }
        let a = Args::parse(["gen", "--scale", "2.5"]).unwrap();
        assert_eq!(a.pos_f64("scale", 1.0).unwrap(), 2.5);
        let a = Args::parse(["gen"]).unwrap();
        assert_eq!(a.pos_f64("scale", 1.0).unwrap(), 1.0);
    }

    #[test]
    fn unit_f64_rejects_out_of_range_and_nan() {
        for bad in ["nan", "1.5", "-0.1", "inf"] {
            let a = Args::parse(["sart", "--loop-pavf", bad]).unwrap();
            let e = a.unit_f64("loop-pavf", 0.3).unwrap_err();
            assert!(e.contains("--loop-pavf"), "{bad}: {e}");
        }
        for good in ["0", "1", "0.3"] {
            let a = Args::parse(["sart", "--loop-pavf", good]).unwrap();
            assert!(a.unit_f64("loop-pavf", 0.3).is_ok(), "{good}");
        }
    }

    #[test]
    fn pos_usize_rejects_zero() {
        let a = Args::parse(["gen", "--cores", "0"]).unwrap();
        let e = a.pos_usize("cores", 1).unwrap_err();
        assert!(e.contains("--cores"));
        let a = Args::parse(["gen", "--cores", "4"]).unwrap();
        assert_eq!(a.pos_usize("cores", 1).unwrap(), 4);
    }
}
