//! Shared plumbing: order statistics, process memory, provenance, and
//! the result line the benchmark ends with.

use std::fmt::Write as _;
use std::process::Command;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The metrics of one run, in the order they are printed.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }
}

/// Outcome of one run: operations attempted and failed, plus metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Harrell–Davis estimate of the `q` quantile of an ascending sample: a
/// weighted mean of all order statistics, the `i`-th weighted by the
/// Beta((n+1)q, (n+1)(1−q)) mass on `[(i−1)/n, i/n]`. Unlike a single
/// order statistic it moves smoothly when neighbouring values trade
/// places, which matters for samples as small as 15 calls. 0 when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
    if sorted.len() < 2 || a <= 0.0 || b <= 0.0 {
        return order_statistic(sorted, q);
    }
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let upto = inc_beta(a, b, (i + 1) as f64 / n);
        estimate += (upto - below) * x;
        below = upto;
    }
    estimate
}

/// Nearest-rank order statistic of an ascending slice; 0 when empty.
fn order_statistic(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (the middle order statistic, so one
/// outlying pass or slice cannot move it); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    order_statistic(&sorted(values.to_vec()), 0.5)
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularised incomplete beta function `I_x(a, b)`.
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// The continued fraction of `I_x(a, b)` (modified Lentz).
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..300 {
        let m = f64::from(m);
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Sorts a sample in place and returns it (for repeated quantiles).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// First line of a tool's `--version`-style output, or `"unknown"`.
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance record printed before the result: host, toolchain,
/// and the workload's own settings (`fields` are preformatted JSON
/// members).
pub fn provenance(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    fields: &[String],
) -> String {
    let mut out = format!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\"cpus\":{},\"git_rev\":{},\"rustc\":{}",
        json_str(workload),
        foc_parallel::available_threads(),
        json_str(&tool_output("git", &["rev-parse", "HEAD"])),
        json_str(&tool_output("rustc", &["--version"])),
    );
    for f in fields {
        out.push(',');
        out.push_str(f);
    }
    out.push('}');
    out
}

/// Renders a finite number with all its digits (JSON has no NaN or
/// infinity).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        o.failed == 0,
        o.attempted,
        o.failed
    );
    for (i, m) in o.metrics.0.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(m.name),
            number(m.value),
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // I_x(1, 1) = x; I_x(2, 2) = 3x² − 2x³; I_x(a, 1) = x^a.
        for x in [0.1, 0.3, 0.5, 0.9] {
            assert!((inc_beta(1.0, 1.0, x) - x).abs() < 1e-12);
            assert!((inc_beta(2.0, 2.0, x) - (3.0 * x * x - 2.0 * x * x * x)).abs() < 1e-12);
            assert!((inc_beta(3.5, 1.0, x) - x.powf(3.5)).abs() < 1e-12);
        }
    }

    #[test]
    fn harrell_davis_is_a_smooth_quantile() {
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert!((quantile(&v, 0.5) - 8.0).abs() < 1e-9, "symmetric sample");
        let p99 = quantile(&v, 0.99);
        assert!(p99 > 14.5 && p99 <= 15.0, "{p99}");
        assert_eq!(median(&[3.0, 1.0, 100.0]), 3.0);
    }
}
