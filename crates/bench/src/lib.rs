//! Experiment harness for the Duplex paper: table formatting, scale
//! selection and the figure-report printers shared by the per-figure
//! binaries and the in-process `run_all` driver.
//!
//! Every binary accepts `--quick` (the shrunk CI-sized sweep, sequence
//! lengths divided by 8) or `--paper` (the default full-sized sweep);
//! anything else is rejected with a usage message. Run every figure
//! with `cargo run --release -p duplex-bench --bin run_all`.

use duplex::experiments::Scale;

pub mod regression;
pub mod reports;

/// Parse the common scale flags from an argument list: `--quick` for
/// the CI-sized sweep, `--paper` (default) for the full sweep. Unknown
/// flags are an error so typos cannot silently run a paper-sized sweep.
pub fn parse_scale<I>(args: I) -> Result<Scale, String>
where
    I: IntoIterator<Item = String>,
{
    let mut scale = Scale::paper();
    for arg in args {
        match arg.as_str() {
            "--quick" => scale = Scale::quick(),
            "--paper" => scale = Scale::paper(),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(scale)
}

/// Parse `--quick` / `--paper` from the process command line; prints a
/// usage message and exits with status 2 on any unknown flag.
pub fn scale_from_args() -> Scale {
    match parse_scale(std::env::args().skip(1)) {
        Ok(scale) => scale,
        Err(e) => {
            let bin = std::env::args()
                .next()
                .unwrap_or_else(|| "duplex-bench".into());
            eprintln!("error: {e}");
            eprintln!("usage: {bin} [--quick | --paper]");
            eprintln!("  --quick  CI-sized sweep (sequence lengths / 8)");
            eprintln!("  --paper  full paper-sized sweep (default)");
            std::process::exit(2);
        }
    }
}

/// Wall time a timed entry's passes must add up to before it reports.
const MIN_WALL_S: f64 = 0.2;

/// Repeat `pass` until the passes' wall times total at least
/// `MIN_WALL_S` (0.2 s): an entry whose run takes a millisecond is too
/// short to time once. `pass` returns its result and the wall time of the
/// part it times, so set-up can stay outside. Returns the last pass's
/// result (every pass replays the same seeded run), the median pass
/// time and the pass count.
pub fn run_repeated<T>(mut pass: impl FnMut() -> (T, f64)) -> (T, f64, usize) {
    let mut walls = Vec::new();
    loop {
        let (out, wall_s) = pass();
        walls.push(wall_s);
        if walls.iter().sum::<f64>() >= MIN_WALL_S {
            walls.sort_by(f64::total_cmp);
            return (out, walls[walls.len() / 2], walls.len());
        }
    }
}

/// Render an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:>width$}  ",
                cell,
                width = widths[i.min(widths.len() - 1)]
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Milliseconds with three decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e3)
}

/// A dimensionless ratio with two decimals.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}")
}

/// Joules as millijoules.
pub fn mj(joules: f64) -> String {
    format!("{:.2}", joules * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(0.001234), "1.234");
        assert_eq!(ratio(2.345), "2.35");
        assert_eq!(mj(0.01), "10.00");
    }

    #[test]
    fn parse_scale_accepts_both_flags_and_defaults_to_paper() {
        assert_eq!(parse_scale(Vec::<String>::new()).unwrap(), Scale::paper());
        assert_eq!(parse_scale(vec!["--quick".into()]).unwrap(), Scale::quick());
        assert_eq!(parse_scale(vec!["--paper".into()]).unwrap(), Scale::paper());
        // Last flag wins.
        assert_eq!(
            parse_scale(vec!["--quick".into(), "--paper".into()]).unwrap(),
            Scale::paper()
        );
    }

    #[test]
    fn parse_scale_rejects_unknown_flags() {
        let err = parse_scale(vec!["--fast".into()]).unwrap_err();
        assert!(err.contains("--fast"), "{err}");
        assert!(parse_scale(vec!["extra".into()]).is_err());
    }
}
