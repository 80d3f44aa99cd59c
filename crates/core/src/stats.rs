//! Small statistics toolkit for the experiment harnesses: summary
//! statistics, quantiles and Markdown tables.
//!
//! The paper states its results as asymptotic bounds (`O(log n)`,
//! `Θ(log n / n)`, …); the harnesses report measured summaries next to
//! the bound evaluated at the experiment's parameters, and `e_paper`
//! (`cd_bench::paper`) asserts the one against the other.

use std::fmt::Write as _;

/// Summary statistics of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarise a sample (consumes and sorts a copy).
    pub fn of<I: IntoIterator<Item = f64>>(values: I) -> Summary {
        let mut v: Vec<f64> = values.into_iter().collect();
        assert!(!v.is_empty(), "cannot summarise an empty sample");
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let n = v.len();
        let mean = v.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            std: var.sqrt(),
            min: v[0],
            p50: quantile_sorted(&v, 0.50),
            p95: quantile_sorted(&v, 0.95),
            p99: quantile_sorted(&v, 0.99),
            max: v[n - 1],
        }
    }

    /// Summarise integer samples.
    pub fn of_u64<I: IntoIterator<Item = u64>>(values: I) -> Summary {
        Summary::of(values.into_iter().map(|x| x as f64))
    }
}

/// Quantile of an ascending-sorted slice (nearest-rank with linear
/// interpolation).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&q));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// A Markdown table builder for harness output.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Render as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], out: &mut String| {
            out.push('|');
            for i in 0..ncol {
                let _ = write!(out, " {:width$} |", cells[i], width = widths[i]);
            }
            out.push('\n');
        };
        render_row(&self.headers, &mut out);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{:-<width$}|", "", width = w + 2);
        }
        out.push('\n');
        for row in &self.rows {
            render_row(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of_u64(1..=100);
        assert_eq!(s.n, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = vec![0.0, 10.0];
        assert_eq!(quantile_sorted(&v, 0.5), 5.0);
        assert_eq!(quantile_sorted(&v, 0.0), 0.0);
        assert_eq!(quantile_sorted(&v, 1.0), 10.0);
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(["n", "value"]);
        t.row(["8", "1.5"]).row(["16", "2.25"]);
        let md = t.to_markdown();
        assert!(md.contains("| n  | value |"));
        assert!(md.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_bad_row() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }
}
