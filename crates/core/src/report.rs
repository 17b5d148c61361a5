//! Plain-text rendering of experiment results: aligned tables and simple
//! series plots for terminal output.

/// Renders an aligned table. The first row of `rows` is typically data;
/// `headers` supplies the column names.
///
/// # Panics
///
/// Panics if any row has a different arity than `headers`.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row arity mismatch");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: Vec<&str>| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            for _ in cell.len()..*w {
                out.push(' ');
            }
        }
        out.push('\n');
    };
    line(&mut out, headers.to_vec());
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&mut out, rule.iter().map(String::as_str).collect());
    for row in rows {
        line(&mut out, row.iter().map(String::as_str).collect());
    }
    out
}

/// Formats a float with 3 decimal places (the precision the paper's plots
/// resolve).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Renders an `(x, y)` series as a crude ASCII sparkline table — enough to
/// eyeball the shapes the paper's figures show.
pub fn series(name: &str, points: &[(f64, f64)]) -> String {
    let mut out = format!("{name}\n");
    let ymax = points.iter().map(|p| p.1).fold(f64::MIN, f64::max);
    let ymin = points.iter().map(|p| p.1).fold(f64::MAX, f64::min);
    for &(x, y) in points {
        let frac = if (ymax - ymin).abs() < 1e-12 {
            0.5
        } else {
            (y - ymin) / (ymax - ymin)
        };
        let bars = (frac * 40.0).round() as usize;
        out.push_str(&format!("  {x:>8.3}  {y:>8.4}  {}\n", "#".repeat(bars)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        // All lines align the second column at the same offset.
        let col = lines[3].find('2').unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_checks_arity() {
        let _ = table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn series_renders_every_point() {
        let s = series("test", &[(1.0, 0.5), (2.0, 1.0)]);
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains('#'));
    }

    #[test]
    fn f3_precision() {
        assert_eq!(f3(0.123456), "0.123");
    }
}
