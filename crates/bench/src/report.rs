//! Reporting helpers for the figure binaries.

use kvcsd_sim::stats::{human_bytes, human_secs};
use kvcsd_sim::LedgerSnapshot;

/// Format a duration for a table cell.
pub fn fmt_secs(s: f64) -> String {
    human_secs(s)
}

/// Format a phase's storage + bus traffic ("read / written / pcie").
pub fn fmt_io(w: &LedgerSnapshot) -> String {
    format!(
        "read {} | written {} | pcie {}",
        human_bytes(w.storage_read_bytes()),
        human_bytes(w.storage_write_bytes()),
        human_bytes(w.pcie_bytes())
    )
}

/// Flash program/erase work of a phase, with the pages programmed per
/// erased block (how much of each erase the phase actually used).
pub fn fmt_flash(w: &LedgerSnapshot) -> String {
    let per_erase = if w.nand_erase_blocks == 0 {
        "-".to_string()
    } else {
        format!(
            "{:.1}",
            w.nand_program_pages as f64 / w.nand_erase_blocks as f64
        )
    };
    format!(
        "programmed {} pages | erased {} blocks | {per_erase} pages per erase",
        w.nand_program_pages, w.nand_erase_blocks
    )
}

/// Speedup as the paper quotes it ("KV-CSD is N.Nx faster").
pub fn speedup(slow_s: f64, fast_s: f64) -> String {
    if fast_s <= 0.0 {
        return "inf".into();
    }
    format!("{:.1}x", slow_s / fast_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_formatting() {
        assert_eq!(speedup(10.0, 2.0), "5.0x");
        assert_eq!(speedup(1.0, 0.0), "inf");
    }

    #[test]
    fn io_formatting_mentions_all_three() {
        let s = LedgerSnapshot {
            page_bytes: 4096,
            ..Default::default()
        };
        let txt = fmt_io(&s);
        assert!(txt.contains("read") && txt.contains("written") && txt.contains("pcie"));
    }
}
