//! Terminal line charts for the experiment binaries — a rough visual of the
//! paper's plots without leaving the terminal.

/// Renders series as an ASCII scatter/line chart. `series` is a list of
/// `(label, points)` with shared x values; y is auto-scaled. Each series
/// is drawn with its own glyph; collisions show the later series.
pub fn ascii_chart(
    title: &str,
    xs: &[f64],
    series: &[(String, Vec<f64>)],
    width: usize,
    height: usize,
) -> String {
    assert!(width >= 16 && height >= 4);
    let glyphs = ['G', 'P', 'M', 'g', 'p', 'm', '*', '+', 'x', 'o'];
    let mut y_min = f64::INFINITY;
    let mut y_max = f64::NEG_INFINITY;
    for (_, ys) in series {
        for &y in ys {
            if y.is_finite() {
                y_min = y_min.min(y);
                y_max = y_max.max(y);
            }
        }
    }
    if !y_min.is_finite() || y_max <= y_min {
        y_max = y_min + 1.0;
    }
    let x_min = xs.first().copied().unwrap_or(0.0);
    let x_max = xs.last().copied().unwrap_or(1.0);
    let x_span = (x_max - x_min).max(f64::MIN_POSITIVE);
    let y_span = y_max - y_min;

    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, ys)) in series.iter().enumerate() {
        let g = glyphs[si % glyphs.len()];
        for (&x, &y) in xs.iter().zip(ys) {
            if !y.is_finite() {
                continue;
            }
            let col = (((x - x_min) / x_span) * (width - 1) as f64).round() as usize;
            let row = (((y - y_min) / y_span) * (height - 1) as f64).round() as usize;
            grid[height - 1 - row][col.min(width - 1)] = g;
        }
    }

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (i, row) in grid.iter().enumerate() {
        let y_here = y_max - y_span * i as f64 / (height - 1) as f64;
        out.push_str(&format!("{y_here:>10.1} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>10}  {:<width$.5}{:>.5}\n",
        "load", x_min, x_max,
        width = width.saturating_sub(7),
    ));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (label, _))| format!("{} = {label}", glyphs[i % glyphs.len()]))
        .collect();
    out.push_str(&format!("{:>10}  {}\n", "", legend.join("   ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_expected_shape() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        let series = vec![
            ("up".to_string(), vec![1.0, 2.0, 3.0, 4.0]),
            ("down".to_string(), vec![4.0, 3.0, 2.0, 1.0]),
        ];
        let chart = ascii_chart("test", &xs, &series, 40, 10);
        assert!(chart.contains("test"));
        assert!(chart.contains("G = up"));
        assert!(chart.contains("P = down"));
        // both glyphs appear
        assert!(chart.matches('G').count() >= 4);
        // at least header + 10 rows + axis + labels
        assert!(chart.lines().count() >= 13);
    }

    #[test]
    fn constant_series_does_not_panic() {
        let xs = vec![1.0, 2.0];
        let series = vec![("flat".to_string(), vec![5.0, 5.0])];
        let chart = ascii_chart("flat", &xs, &series, 20, 5);
        assert!(chart.contains('G'));
    }

    #[test]
    fn handles_non_finite_points() {
        let xs = vec![1.0, 2.0, 3.0];
        let series = vec![("holes".to_string(), vec![1.0, f64::NAN, 3.0])];
        let chart = ascii_chart("holes", &xs, &series, 20, 5);
        // two plotted points plus the glyph in the legend line
        assert_eq!(chart.matches('G').count(), 3);
    }
}
