//! Experiment harness support for the paper's tables and figures.
//!
//! The real content of this crate lives in its binaries (`src/bin/*.rs`),
//! one per table/figure, and its `harness = false` benches (`benches/`),
//! which are driven by the in-tree [`harness`] module. This library
//! also holds the binaries' shared argument parsing.

pub mod harness;

pub use harness::{Harness, Measurement, Throughput};

/// Parses an experiment binary's optional trace-scale argument: `None`
/// gives `default`; anything but a finite positive number is an error.
pub fn parse_scale(arg: Option<&str>, default: f64) -> Result<f64, String> {
    let Some(text) = arg else {
        return Ok(default);
    };
    match text.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!("scale must be a finite positive number, got {text:?}")),
    }
}

/// [`parse_scale`] for a binary's `main`: a bad argument is a
/// [`usage_error`] naming `usage`, raised before any output.
pub fn scale_arg(arg: Option<String>, default: f64, usage: &str) -> f64 {
    parse_scale(arg.as_deref(), default)
        .unwrap_or_else(|e| usage_error(&format!("{e}; usage: {usage}")))
}

/// Removes `flag <value>` from `args` and returns the value as `parse`
/// reads it; a missing or unparsable value is a [`usage_error`].
pub fn take_flag<T>(
    args: &mut Vec<String>,
    flag: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(i + 1) else {
        usage_error(&format!("{flag} needs a value"))
    };
    let parsed = parse(value).unwrap_or_else(|e| usage_error(&format!("{flag}: {e}")));
    args.drain(i..=i + 1);
    Some(parsed)
}

/// Parses a numeric flag value; anything else is a [`usage_error`].
pub fn parse_num(s: &str, what: &str) -> usize {
    s.parse().unwrap_or_else(|_| usage_error(&format!("{what}: {s} is not a number")))
}

/// Prints `message` and exits with code 1: the binaries' exit on a
/// failed run, check or I/O call.
pub fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1)
}

/// Prints a one-line usage error and exits with code 2.
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_must_be_finite_and_positive() {
        assert_eq!(parse_scale(None, 0.25), Ok(0.25));
        assert_eq!(parse_scale(Some("0.02"), 1.0), Ok(0.02));
        assert_eq!(parse_scale(Some("1e1"), 1.0), Ok(10.0));
        for bad in ["--help", "", "x", "0", "-0.5", "NaN", "inf", "-inf"] {
            assert!(parse_scale(Some(bad), 1.0).is_err(), "{bad:?}");
        }
    }
}
