//! Renderers for campaign telemetry: terminal tables, unicode heatmaps and
//! a self-contained HTML report.
//!
//! All renderers are pure functions of [`crate::aggregate`] structures and
//! format floats with fixed precision, so identical inputs produce
//! byte-identical output (the `report` golden test pins this).

use std::fmt::Write as _;

use crate::aggregate::{Heatmap, KernelSummary, StallCause};
use crate::events::CellEvent;

/// Unicode shade for a 0..=1 density (5 levels).
#[must_use]
pub fn shade(frac: f64) -> char {
    let f = frac.clamp(0.0, 1.0);
    match (f * 4.0).round() as u8 {
        0 => ' ',
        1 => '\u{2591}', // ░
        2 => '\u{2592}', // ▒
        3 => '\u{2593}', // ▓
        _ => '\u{2588}', // █
    }
}

/// The per-kernel summary table.
#[must_use]
pub fn render_kernel_table(rows: &[KernelSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>14} {:>14} {:>10} {:>9} {:>6} {:>5}",
        "kernel", "cells", "cycles", "guarded", "no-div", "episodes", "viol", "fail"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>14} {:>14} {:>10} {:>9} {:>6} {:>5}",
            r.kernel, r.cells, r.cycles, r.guarded, r.no_div, r.episodes, r.violations, r.failed
        );
    }
    out
}

/// The kernel × config no-diversity heatmap (percent of guarded cycles,
/// one shaded cell per combination).
#[must_use]
pub fn render_heatmap(h: &Heatmap) -> String {
    let kw = h.kernels.iter().map(String::len).max().unwrap_or(6).max(6);
    let cw = h.configs.iter().map(String::len).max().unwrap_or(7).max(7);
    let mut out = String::new();
    let _ = write!(out, "{:<kw$}", "kernel");
    for c in &h.configs {
        let _ = write!(out, " {c:>cw$}");
    }
    out.push('\n');
    for (r, k) in h.kernels.iter().enumerate() {
        let _ = write!(out, "{k:<kw$}");
        for cell in &h.values[r] {
            match cell {
                None => {
                    let _ = write!(out, " {:>cw$}", "-");
                }
                Some(frac) => {
                    let body = format!("{:.1}%{}", frac * 100.0, shade(*frac));
                    let _ = write!(out, " {body:>cw$}");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// The slowest-cells table (cost column is wall-clock µs when the stream
/// carries timing, simulated cycles otherwise).
#[must_use]
pub fn render_slowest(cells: &[&CellEvent]) -> String {
    let has_timing = cells.iter().any(|e| e.wall_us.is_some());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:<16} {:<14} {:>4} {:>14} {:>12}",
        "cell",
        "kernel",
        "config",
        "run",
        "cycles",
        if has_timing { "wall-us" } else { "(no timing)" }
    );
    for e in cells {
        let cost = e.wall_us.map_or_else(|| "-".to_owned(), |us| us.to_string());
        let _ = writeln!(
            out,
            "{:>6} {:<16} {:<14} {:>4} {:>14} {:>12}",
            e.index,
            e.kernel,
            e.config,
            e.run,
            e.cycles,
            if has_timing { cost } else { "-".to_owned() }
        );
    }
    out
}

/// The stall-cause Pareto: cycles, share and cumulative share per cause.
#[must_use]
pub fn render_pareto(causes: &[StallCause]) -> String {
    #[allow(clippy::cast_precision_loss)]
    let total = causes.iter().map(|c| c.cycles).sum::<u64>() as f64;
    let mut out = String::new();
    let _ = writeln!(out, "{:<10} {:>14} {:>7} {:>7}", "cause", "cycles", "%", "cum%");
    let mut cum = 0.0;
    for c in causes {
        #[allow(clippy::cast_precision_loss)]
        let share = if total > 0.0 { c.cycles as f64 / total } else { 0.0 };
        cum += share;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let bar = "#".repeat((share * 40.0).round() as usize);
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>6.1}% {:>6.1}%  {bar}",
            c.cause,
            c.cycles,
            share * 100.0,
            cum * 100.0
        );
    }
    out
}

/// Escapes text for HTML bodies.
#[must_use]
pub fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Wraps pre-rendered section bodies into a self-contained HTML page
/// (inline CSS, no external assets).
#[must_use]
pub fn html_page(title: &str, sections: &[(String, String)]) -> String {
    let mut body = String::new();
    for (heading, html) in sections {
        let _ = writeln!(body, "<section><h2>{}</h2>{html}</section>", html_escape(heading));
    }
    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>{}</title>\n<style>\n\
         body{{font-family:ui-monospace,monospace;margin:2em;background:#fafafa;color:#222}}\n\
         h1{{font-size:1.4em}} h2{{font-size:1.1em;margin-top:1.5em}}\n\
         table{{border-collapse:collapse}} td,th{{border:1px solid #ccc;padding:2px 8px;\
         text-align:right}} th{{background:#eee}} td.l,th.l{{text-align:left}}\n\
         td.hot{{color:#fff}}\n\
         </style></head><body>\n<h1>{}</h1>\n{body}</body></html>\n",
        html_escape(title),
        html_escape(title)
    )
}

/// The heatmap as an HTML table with background-shaded cells.
#[must_use]
pub fn html_heatmap(h: &Heatmap) -> String {
    let mut out = String::from("<table><tr><th class=\"l\">kernel</th>");
    for c in &h.configs {
        let _ = write!(out, "<th>{}</th>", html_escape(c));
    }
    out.push_str("</tr>\n");
    for (r, k) in h.kernels.iter().enumerate() {
        let _ = write!(out, "<tr><td class=\"l\">{}</td>", html_escape(k));
        for cell in &h.values[r] {
            match cell {
                None => out.push_str("<td>-</td>"),
                Some(frac) => {
                    // White → deep red with increasing no-diversity density.
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let level = (frac.clamp(0.0, 1.0) * 255.0).round() as u8;
                    let (g, b) = (255 - level, 255 - level);
                    let class = if level > 128 { " class=\"hot\"" } else { "" };
                    let _ = write!(
                        out,
                        "<td{class} style=\"background:rgb(255,{g},{b})\">{:.1}%</td>",
                        frac * 100.0
                    );
                }
            }
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>");
    out
}

/// The per-kernel summary as an HTML table.
#[must_use]
pub fn html_kernel_table(rows: &[KernelSummary]) -> String {
    let mut out = String::from(
        "<table><tr><th class=\"l\">kernel</th><th>cells</th><th>cycles</th><th>guarded</th>\
         <th>no-div</th><th>episodes</th><th>violations</th><th>failed</th></tr>\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td></tr>",
            html_escape(&r.kernel),
            r.cells,
            r.cycles,
            r.guarded,
            r.no_div,
            r.episodes,
            r.violations,
            r.failed
        );
    }
    out.push_str("</table>");
    out
}

/// A pre-rendered monospace block (slowest cells, Pareto) as HTML.
#[must_use]
pub fn html_pre(text: &str) -> String {
    format!("<pre>{}</pre>", html_escape(text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{heatmap, summarize_by_kernel};

    fn ev(kernel: &str, config: &str, guarded: u64, no_div: u64) -> CellEvent {
        CellEvent {
            index: 0,
            kernel: kernel.to_owned(),
            config: config.to_owned(),
            engine: "cycle".to_owned(),
            run: 0,
            seed: 1,
            cycles: guarded,
            guarded,
            zero_stag: 0,
            no_div,
            episodes: 0,
            violations: 0,
            ok: true,
            wall_us: None,
        }
    }

    #[test]
    fn shade_covers_the_range() {
        assert_eq!(shade(0.0), ' ');
        assert_eq!(shade(1.0), '\u{2588}');
        assert_eq!(shade(2.5), '\u{2588}'); // clamped
    }

    #[test]
    fn heatmap_render_contains_every_axis_label() {
        let h = heatmap(&[ev("fac", "nops=0", 100, 50), ev("fac", "nops=100", 100, 0)]);
        let text = render_heatmap(&h);
        assert!(text.contains("fac"));
        assert!(text.contains("nops=0"));
        assert!(text.contains("50.0%"));
        let html = html_heatmap(&h);
        assert!(html.contains("<table>"));
        assert!(html.contains("rgb(255,"));
    }

    #[test]
    fn page_and_tables_are_wellformed_enough() {
        let sums = summarize_by_kernel(&[ev("fac", "nops=0", 10, 1)]);
        let page =
            html_page("campaign report", &[("kernels".to_owned(), html_kernel_table(&sums))]);
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.contains("<h2>kernels</h2>"));
        assert!(page.ends_with("</html>\n"));
        assert_eq!(html_escape("a<b&c"), "a&lt;b&amp;c");
        assert!(html_pre("x<y").contains("x&lt;y"));
    }

    #[test]
    fn pareto_and_slowest_render() {
        let causes = vec![
            StallCause { cause: "mem".to_owned(), cycles: 75 },
            StallCause { cause: "fetch".to_owned(), cycles: 25 },
        ];
        let text = render_pareto(&causes);
        assert!(text.contains("75.0%"));
        assert!(text.contains("100.0%"));
        let a = ev("fac", "nops=0", 10, 0);
        let slowest = render_slowest(&[&a]);
        assert!(slowest.contains("fac"));
        assert!(slowest.contains("(no timing)"));
    }
}
