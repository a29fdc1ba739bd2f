//! Minimal dependency-free SVG plotting for experiment outputs: line charts
//! (load-latency / power curves) and heat-maps (utilization grids). The
//! figure experiments write these next to their text reports in `results/`.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Palette used for chart series (colour-blind-friendly).
const PALETTE: [&str; 8] = [
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb", "#222222",
];

/// One named series of (x, y) points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Data points; non-finite y values break the line (e.g. saturation).
    pub points: Vec<(f64, f64)>,
}

/// A simple line chart.
#[derive(Clone, Debug)]
pub struct LineChart {
    /// Chart title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series to draw.
    pub series: Vec<Series>,
}

impl LineChart {
    /// Creates an empty chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) -> &mut Self {
        self.series.push(Series {
            name: name.into(),
            points,
        });
        self
    }

    /// Renders the chart to an SVG string.
    pub fn to_svg(&self) -> String {
        const W: f64 = 640.0;
        const H: f64 = 420.0;
        const ML: f64 = 64.0; // left margin
        const MR: f64 = 150.0; // room for the legend
        const MT: f64 = 40.0;
        const MB: f64 = 52.0;
        let pw = W - ML - MR;
        let ph = H - MT - MB;

        let finite = |v: f64| v.is_finite();
        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter())
            .filter(|p| finite(p.1))
            .map(|p| p.0)
            .collect();
        let ys: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter())
            .filter(|p| finite(p.1))
            .map(|p| p.1)
            .collect();
        let (x0, x1) = bounds(&xs);
        let (mut y0, mut y1) = bounds(&ys);
        if y0 > 0.0 && y0 < y1 * 0.5 {
            y0 = 0.0; // anchor at zero when sensible
        }
        if (y1 - y0).abs() < 1e-12 {
            y1 = y0 + 1.0;
        }
        let px = |x: f64| ML + (x - x0) / (x1 - x0).max(1e-12) * pw;
        let py = |y: f64| MT + ph - (y - y0) / (y1 - y0) * ph;

        let mut s = String::new();
        let _ = write!(
            s,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" font-family="sans-serif" font-size="12">"#
        );
        let _ = write!(
            s,
            r#"<rect width="{W}" height="{H}" fill="white"/><text x="{}" y="22" text-anchor="middle" font-size="15">{}</text>"#,
            ML + pw / 2.0,
            esc(&self.title)
        );
        // Axes + ticks.
        let _ = write!(
            s,
            r#"<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{}" stroke="black"/><line x1="{ML}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
            MT + ph,
            MT + ph,
            ML + pw,
            MT + ph
        );
        for k in 0..=4 {
            let xv = x0 + (x1 - x0) * k as f64 / 4.0;
            let yv = y0 + (y1 - y0) * k as f64 / 4.0;
            let _ = write!(
                s,
                r#"<text x="{:.1}" y="{:.1}" text-anchor="middle">{}</text>"#,
                px(xv),
                MT + ph + 16.0,
                fmt_tick(xv)
            );
            let _ = write!(
                s,
                r##"<text x="{:.1}" y="{:.1}" text-anchor="end">{}</text><line x1="{ML}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#dddddd"/>"##,
                ML - 6.0,
                py(yv) + 4.0,
                fmt_tick(yv),
                py(yv),
                ML + pw,
                py(yv)
            );
        }
        let _ = write!(
            s,
            r#"<text x="{}" y="{}" text-anchor="middle">{}</text>"#,
            ML + pw / 2.0,
            H - 12.0,
            esc(&self.x_label)
        );
        let _ = write!(
            s,
            r#"<text x="16" y="{}" text-anchor="middle" transform="rotate(-90 16 {})">{}</text>"#,
            MT + ph / 2.0,
            MT + ph / 2.0,
            esc(&self.y_label)
        );
        // Series.
        for (i, ser) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            let mut d = String::new();
            let mut pen_up = true;
            for &(x, y) in &ser.points {
                if !finite(y) {
                    pen_up = true;
                    continue;
                }
                let cmd = if pen_up { 'M' } else { 'L' };
                let _ = write!(d, "{cmd}{:.1} {:.1} ", px(x), py(y));
                pen_up = false;
            }
            let _ = write!(
                s,
                r#"<path d="{}" fill="none" stroke="{color}" stroke-width="1.8"/>"#,
                d.trim_end()
            );
            let ly = MT + 14.0 * i as f64;
            let _ = write!(
                s,
                r#"<line x1="{:.1}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{color}" stroke-width="2"/><text x="{:.1}" y="{:.1}">{}</text>"#,
                ML + pw + 8.0,
                ML + pw + 28.0,
                ML + pw + 32.0,
                ly + 4.0,
                esc(&ser.name)
            );
        }
        s.push_str("</svg>");
        s
    }

    /// Writes the SVG to `path`.
    ///
    /// # Panics
    /// Panics on I/O failure (experiment harness context).
    pub fn write(&self, path: impl AsRef<Path>) {
        fs::write(path.as_ref(), self.to_svg()).expect("write svg");
    }
}

/// A grid heat-map (row-major values).
#[derive(Clone, Debug)]
pub struct HeatMap {
    /// Chart title.
    pub title: String,
    /// Grid width.
    pub width: usize,
    /// Row-major cell values.
    pub values: Vec<f64>,
}

impl HeatMap {
    /// Creates a heat-map for a `width`-column grid.
    ///
    /// # Panics
    /// Panics if the value count is not a multiple of `width`.
    pub fn new(title: impl Into<String>, width: usize, values: Vec<f64>) -> Self {
        assert!(
            width > 0 && values.len().is_multiple_of(width),
            "ragged heat-map"
        );
        Self {
            title: title.into(),
            width,
            values,
        }
    }

    /// Renders to an SVG string (blue = cold, red = hot, value labels).
    pub fn to_svg(&self) -> String {
        let h = self.values.len() / self.width;
        let cell = 52.0;
        let mt = 36.0;
        let w = self.width as f64 * cell + 20.0;
        let hh = h as f64 * cell + mt + 16.0;
        let (lo, hi) = bounds(&self.values);
        let span = (hi - lo).max(1e-12);
        let mut s = String::new();
        let _ = write!(
            s,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{hh}" font-family="sans-serif" font-size="11">"#
        );
        let _ = write!(
            s,
            r#"<rect width="{w}" height="{hh}" fill="white"/><text x="{}" y="20" text-anchor="middle" font-size="14">{}</text>"#,
            w / 2.0,
            esc(&self.title)
        );
        for (i, &v) in self.values.iter().enumerate() {
            let x = 10.0 + (i % self.width) as f64 * cell;
            let y = mt + (i / self.width) as f64 * cell;
            let t = (v - lo) / span;
            let r = (40.0 + 215.0 * t) as u8;
            let g = (70.0 + 60.0 * (1.0 - (2.0 * t - 1.0).abs())) as u8;
            let b = (220.0 - 180.0 * t) as u8;
            let _ = write!(
                s,
                r##"<rect x="{x:.0}" y="{y:.0}" width="{cell:.0}" height="{cell:.0}" fill="rgb({r},{g},{b})" stroke="white"/><text x="{:.0}" y="{:.0}" text-anchor="middle" fill="white">{}</text>"##,
                x + cell / 2.0,
                y + cell / 2.0 + 4.0,
                fmt_tick(v)
            );
        }
        s.push_str("</svg>");
        s
    }

    /// Writes the SVG to `path`.
    ///
    /// # Panics
    /// Panics on I/O failure (experiment harness context).
    pub fn write(&self, path: impl AsRef<Path>) {
        fs::write(path.as_ref(), self.to_svg()).expect("write svg");
    }
}

fn bounds(v: &[f64]) -> (f64, f64) {
    let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if lo.is_finite() && hi.is_finite() {
        (lo, hi)
    } else {
        (0.0, 1.0)
    }
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_renders_series_and_labels() {
        let mut c = LineChart::new("Load vs latency", "rate", "ns");
        c.series("Baseline", vec![(0.01, 10.0), (0.02, 12.0), (0.03, 20.0)]);
        c.series("Hetero", vec![(0.01, 11.0), (0.02, f64::NAN), (0.03, 25.0)]);
        let svg = c.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("Load vs latency"));
        assert!(svg.contains("Baseline"));
        assert!(svg.contains("Hetero"));
        // Two path elements, one per series.
        assert_eq!(svg.matches("<path").count(), 2);
        // The NaN breaks the second path into a second M command.
        let hetero_path = svg.split("<path").nth(2).unwrap();
        assert_eq!(hetero_path.matches('M').count(), 2);
    }

    #[test]
    fn heat_map_renders_all_cells() {
        let hm = HeatMap::new("util", 4, (0..16).map(|i| i as f64).collect());
        let svg = hm.to_svg();
        assert_eq!(svg.matches("<rect").count(), 17); // 16 cells + background
        assert!(svg.contains("util"));
    }

    #[test]
    fn escaping_and_degenerate_input() {
        let mut c = LineChart::new("a < b & c", "x", "y");
        c.series("s", vec![(0.0, 5.0)]);
        let svg = c.to_svg();
        assert!(svg.contains("a &lt; b &amp; c"));
        // Flat single point must not divide by zero.
        assert!(!svg.contains("NaN"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn heat_map_rejects_ragged_grids() {
        let _ = HeatMap::new("x", 3, vec![1.0; 7]);
    }
}
