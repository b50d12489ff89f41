//! The text `bayonet run` and `bayonet synthesize` print. The CLI, the
//! server's `text` fields and the differential suites all render through
//! these, so their outputs are byte-identical by construction.

use std::fmt::Write as _;

use bayonet_num::Rat;
use bayonet_symbolic::ParamTable;

use crate::{EngineStats, QueryResult, Synthesis};

/// Renders an exact run as `bayonet run` prints it: each query result, the
/// `Z = …` line and, when `stats` is given, the `[… steps, …]` line.
pub fn render_run(
    results: &[QueryResult],
    z: &Rat,
    discarded: &Rat,
    stats: Option<&EngineStats>,
) -> String {
    let mut text = String::new();
    for result in results {
        let _ = write!(text, "{result}");
    }
    let _ = writeln!(text, "Z = {z} (discarded by observations: {discarded})");
    if let Some(stats) = stats {
        let _ = writeln!(
            text,
            "[{} steps, {} expansions, peak {} configs, {} merge hits]",
            stats.steps, stats.expansions, stats.peak_configs, stats.merge_hits
        );
    }
    text
}

/// Renders a synthesis as `bayonet synthesize` prints it: the piecewise
/// result with the optimal cell starred, the optimal value, its constraint
/// and the witness, naming parameters from `params`.
pub fn render_synthesis(synthesis: &Synthesis, params: &ParamTable) -> String {
    let mut text = String::from("piecewise result:\n");
    for (i, cell) in synthesis.result.cells.iter().enumerate() {
        let marker = if i == synthesis.best_cell { "*" } else { " " };
        let value = cell
            .value
            .as_ref()
            .map(|v| v.to_string())
            .unwrap_or_else(|| "undefined".into());
        let _ = writeln!(text, "{marker} [{}] {value}", cell.constraint);
    }
    let _ = writeln!(
        text,
        "optimal value: {} ≈ {:.4}",
        synthesis.value,
        synthesis.value.to_f64()
    );
    let _ = writeln!(text, "constraint:    {}", synthesis.constraint);
    text.push_str("witness:      ");
    for (pid, v) in &synthesis.assignment {
        let _ = write!(text, " {} = {v}", params.name(*pid));
    }
    text.push('\n');
    text
}
