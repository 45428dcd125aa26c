//! A small, dependency-free command-line argument parser.
//!
//! Supports `--flag value`, `--flag=value`, boolean `--flag`, and positional
//! arguments, with typed getters that produce readable error messages. This
//! is deliberately minimal: the workspace builds hermetically with no
//! external dependencies, and the CLI's needs are simple.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// Parse or lookup failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag not in the declared set.
    UnknownFlag(String),
    /// A value-taking flag at the end of the argument list.
    MissingValue(String),
    /// A required flag that was not supplied.
    Required(String),
    /// A value that failed to parse; `(flag, value, expected type)`.
    BadValue(String, String, &'static str),
    /// The same flag given twice.
    Duplicate(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(f, "unknown option --{flag}"),
            ArgError::MissingValue(flag) => write!(f, "option --{flag} requires a value"),
            ArgError::Required(flag) => write!(f, "missing required option --{flag}"),
            ArgError::BadValue(flag, value, ty) => {
                write!(f, "--{flag}: cannot parse {value:?} as {ty}")
            }
            ArgError::Duplicate(flag) => write!(f, "option --{flag} given more than once"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Declares which flags exist and whether each takes a value.
pub struct Spec {
    value_flags: Vec<&'static str>,
    bool_flags: Vec<&'static str>,
}

impl Spec {
    /// Creates a spec from the value-taking and boolean flag names
    /// (without leading dashes).
    pub fn new(value_flags: &[&'static str], bool_flags: &[&'static str]) -> Self {
        Self {
            value_flags: value_flags.to_vec(),
            bool_flags: bool_flags.to_vec(),
        }
    }

    /// Parses an argument vector.
    pub fn parse(&self, argv: &[String]) -> Result<Parsed, ArgError> {
        let mut values: HashMap<String, String> = HashMap::new();
        let mut bools: Vec<String> = Vec::new();
        let mut positional: Vec<String> = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            if let Some(stripped) = arg.strip_prefix("--") {
                let (name, inline) = match stripped.split_once('=') {
                    Some((n, v)) => (n.to_string(), Some(v.to_string())),
                    None => (stripped.to_string(), None),
                };
                if self.bool_flags.contains(&name.as_str()) {
                    if inline.is_some() {
                        return Err(ArgError::BadValue(
                            name,
                            inline.unwrap_or_default(),
                            "flag (takes no value)",
                        ));
                    }
                    if bools.contains(&name) {
                        return Err(ArgError::Duplicate(name));
                    }
                    bools.push(name);
                } else if self.value_flags.contains(&name.as_str()) {
                    let value = match inline {
                        Some(v) => v,
                        None => {
                            i += 1;
                            argv.get(i)
                                .cloned()
                                .ok_or_else(|| ArgError::MissingValue(name.clone()))?
                        }
                    };
                    if values.insert(name.clone(), value).is_some() {
                        return Err(ArgError::Duplicate(name));
                    }
                } else {
                    return Err(ArgError::UnknownFlag(name));
                }
            } else {
                positional.push(arg.clone());
            }
            i += 1;
        }
        Ok(Parsed {
            values,
            bools,
            positional,
        })
    }
}

/// The parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    values: HashMap<String, String>,
    bools: Vec<String>,
    positional: Vec<String>,
}

impl Parsed {
    /// Raw string value of a flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// Whether a boolean flag was given.
    pub fn has(&self, flag: &str) -> bool {
        self.bools.iter().any(|b| b == flag)
    }

    /// Positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Typed optional value. A NaN is refused like any unparsable value:
    /// every comparison with it is false, so no flag can mean it.
    pub fn opt<T: FromStr + PartialEq>(
        &self,
        flag: &str,
        ty: &'static str,
    ) -> Result<Option<T>, ArgError> {
        match self.get(flag) {
            None => Ok(None),
            Some(raw) => match raw.parse::<T>() {
                // Only a NaN is unequal to itself.
                #[allow(clippy::eq_op)]
                Ok(value) if value == value => Ok(Some(value)),
                _ => Err(ArgError::BadValue(flag.to_string(), raw.to_string(), ty)),
            },
        }
    }

    /// Typed value with a default.
    pub fn or<T: FromStr + PartialEq>(
        &self,
        flag: &str,
        ty: &'static str,
        default: T,
    ) -> Result<T, ArgError> {
        Ok(self.opt(flag, ty)?.unwrap_or(default))
    }

    /// Typed required value.
    pub fn required<T: FromStr + PartialEq>(
        &self,
        flag: &str,
        ty: &'static str,
    ) -> Result<T, ArgError> {
        self.opt(flag, ty)?
            .ok_or_else(|| ArgError::Required(flag.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn spec() -> Spec {
        Spec::new(&["phi", "k", "input"], &["verbose", "json"])
    }

    #[test]
    fn parses_both_value_forms_and_bools() {
        let p = spec()
            .parse(&argv(&["--phi", "5", "--k=3", "--verbose", "file.csv"]))
            .unwrap();
        assert_eq!(p.get("phi"), Some("5"));
        assert_eq!(p.get("k"), Some("3"));
        assert!(p.has("verbose"));
        assert!(!p.has("json"));
        assert_eq!(p.positional(), &["file.csv".to_string()]);
    }

    #[test]
    fn typed_getters() {
        let p = spec().parse(&argv(&["--phi", "5"])).unwrap();
        assert_eq!(p.or("phi", "integer", 3u32).unwrap(), 5);
        assert_eq!(p.or("k", "integer", 3u32).unwrap(), 3);
        assert_eq!(p.opt::<u32>("k", "integer").unwrap(), None);
        assert_eq!(p.required::<u32>("phi", "integer").unwrap(), 5);
        assert_eq!(
            p.required::<u32>("k", "integer"),
            Err(ArgError::Required("k".into()))
        );
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            spec().parse(&argv(&["--nope"])),
            Err(ArgError::UnknownFlag("nope".into()))
        );
        assert_eq!(
            spec().parse(&argv(&["--phi"])),
            Err(ArgError::MissingValue("phi".into()))
        );
        assert_eq!(
            spec().parse(&argv(&["--phi", "1", "--phi", "2"])),
            Err(ArgError::Duplicate("phi".into()))
        );
        assert_eq!(
            spec().parse(&argv(&["--verbose=yes"])),
            Err(ArgError::BadValue(
                "verbose".into(),
                "yes".into(),
                "flag (takes no value)"
            ))
        );
        assert_eq!(
            spec().parse(&argv(&["--verbose", "--verbose"])),
            Err(ArgError::Duplicate("verbose".into()))
        );
        let p = spec().parse(&argv(&["--phi", "abc"])).unwrap();
        assert!(matches!(
            p.opt::<u32>("phi", "integer"),
            Err(ArgError::BadValue(_, _, "integer"))
        ));
        for nan in ["nan", "NaN", "-nan"] {
            let p = spec().parse(&argv(&["--phi", nan])).unwrap();
            assert_eq!(
                p.opt::<f64>("phi", "number"),
                Err(ArgError::BadValue("phi".into(), nan.into(), "number"))
            );
        }
        let p = spec().parse(&argv(&["--phi", "-inf"])).unwrap();
        assert_eq!(p.opt::<f64>("phi", "number"), Ok(Some(f64::NEG_INFINITY)));
    }

    #[test]
    fn error_messages_are_readable() {
        assert_eq!(
            ArgError::UnknownFlag("x".into()).to_string(),
            "unknown option --x"
        );
        assert!(ArgError::BadValue("k".into(), "z".into(), "integer")
            .to_string()
            .contains("cannot parse"));
    }
}
