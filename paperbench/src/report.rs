//! Result formatting and the statistics the benchmark reports.

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The median of `values` (0 for none).
pub fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `{"min":…,"p25":…,"p50":…,"p75":…,"max":…}` of `values` (nearest
/// rank).
pub fn quartiles_json(values: impl Iterator<Item = f64>) -> String {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return "null".into();
    }
    v.sort_by(f64::total_cmp);
    let at = |q: f64| json_num(v[((v.len() - 1) as f64 * q).round() as usize]);
    format!(
        "{{\"min\":{},\"p25\":{},\"p50\":{},\"p75\":{},\"max\":{}}}",
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit Rust's shortest round-trip form gives, and 0
/// for a non-finite value.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median([3.0, 1.0, 2.0].into_iter()), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0].into_iter()), 2.5);
        assert_eq!(median(std::iter::empty()), 0.0);
    }

    #[test]
    fn quartiles_by_nearest_rank() {
        let q = quartiles_json([4.0, 0.0, 2.0, 1.0, 3.0].into_iter());
        assert_eq!(q, "{\"min\":0,\"p25\":1,\"p50\":2,\"p75\":3,\"max\":4}");
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "verdict_s",
                unit: "s",
                value: 0.25,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"verdict_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }
}
