//! Streaming-bench gate: validates `BENCH_streaming.json` (written by
//! `experiments bench_streaming`) and exits non-zero when the report is
//! malformed or the incremental-KB contracts do not hold.
//!
//! Checked per round row, exactly:
//!   - conservation: `discovered_ee >= promotions` (promotion consumes
//!     discovered evidence, never invents it) and
//!     `promoted_total >= promotions`
//!   - `eval_linked <= eval_total`
//!   - `promoted_total` and `generation` are nondecreasing across rounds
//!
//! Checked globally:
//!   - `"virtual_deterministic": true` (two full runs bit-identical)
//!   - `"wal_replay_consistent": true` (WAL replay reproduces mutations)
//!   - `"compaction_equivalent": true` (delta epoch == compacted snapshot)
//!   - `"accuracy_improved": true` and `"accuracy_monotone": true` — the
//!     EE linked accuracy improves as promotions land, and never regresses
//!   - cumulative promotions across rounds never exceed cumulative
//!     discoveries
//!
//! Usage:
//!   streaming_check <BENCH_streaming.json>

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::process::ExitCode;

/// One parsed round row (one line per round, as in `serving_check`).
#[derive(Debug, Clone, PartialEq)]
struct Round {
    day: u64,
    discovered_ee: u64,
    promotions: u64,
    promoted_total: u64,
    generation: u64,
    eval_linked: u64,
    eval_total: u64,
    ee_linked_accuracy: f64,
}

/// Extracts an unsigned integer field (`"key": 123`) from a one-line JSON
/// object.
fn u64_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let digits: String =
        line[start..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Extracts a float field (`"key": 0.123456`) from a one-line JSON object.
fn f64_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let number: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    number.parse().ok()
}

fn parse_round(line: &str) -> Option<Round> {
    Some(Round {
        day: u64_field(line, "day")?,
        discovered_ee: u64_field(line, "discovered_ee")?,
        promotions: u64_field(line, "promotions")?,
        promoted_total: u64_field(line, "promoted_total")?,
        generation: u64_field(line, "generation")?,
        eval_linked: u64_field(line, "eval_linked")?,
        eval_total: u64_field(line, "eval_total")?,
        ee_linked_accuracy: f64_field(line, "ee_linked_accuracy")?,
    })
}

/// The global boolean flags the bench writes.
#[derive(Debug, Clone, Copy)]
struct Flags {
    deterministic: bool,
    wal_consistent: bool,
    compaction_equivalent: bool,
    accuracy_monotone: bool,
    accuracy_improved: bool,
}

fn bool_flag(json: &str, key: &str) -> Result<bool, String> {
    if json.contains(&format!("\"{key}\": true")) {
        Ok(true)
    } else if json.contains(&format!("\"{key}\": false")) {
        Ok(false)
    } else {
        Err(format!("missing \"{key}\" flag"))
    }
}

fn parse_report(json: &str) -> Result<(Vec<Round>, Flags), String> {
    let flags = Flags {
        deterministic: bool_flag(json, "virtual_deterministic")?,
        wal_consistent: bool_flag(json, "wal_replay_consistent")?,
        compaction_equivalent: bool_flag(json, "compaction_equivalent")?,
        accuracy_monotone: bool_flag(json, "accuracy_monotone")?,
        accuracy_improved: bool_flag(json, "accuracy_improved")?,
    };
    let mut rounds = Vec::new();
    let mut in_rounds = false;
    for line in json.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("\"rounds\"") {
            in_rounds = true;
            continue;
        }
        if in_rounds {
            if trimmed.starts_with(']') {
                break;
            }
            let round = parse_round(trimmed)
                .ok_or_else(|| format!("malformed round row: {trimmed}"))?;
            rounds.push(round);
        }
    }
    if rounds.is_empty() {
        return Err("no round rows found".to_string());
    }
    Ok((rounds, flags))
}

/// All validation failures for a parsed report.
fn validate(rounds: &[Round], flags: Flags) -> Vec<String> {
    let mut errors = Vec::new();
    if !flags.deterministic {
        errors.push("streaming runs were not bit-identical across invocations".to_string());
    }
    if !flags.wal_consistent {
        errors.push("WAL replay did not reproduce the accumulated mutations".to_string());
    }
    if !flags.compaction_equivalent {
        errors.push("compacted snapshot diverged from the delta epoch".to_string());
    }
    if !flags.accuracy_monotone {
        errors.push("EE linked accuracy regressed between rounds".to_string());
    }
    if !flags.accuracy_improved {
        errors.push("EE linked accuracy did not improve over the stream".to_string());
    }
    let mut cumulative_discovered = 0u64;
    let mut cumulative_promoted = 0u64;
    let mut prev_total = 0u64;
    let mut prev_generation = 0u64;
    for r in rounds {
        let ctx = format!("day {}", r.day);
        if r.promotions > r.discovered_ee + (cumulative_discovered - cumulative_promoted) {
            errors.push(format!(
                "{ctx}: promotions ({}) exceed available discovered evidence",
                r.promotions
            ));
        }
        cumulative_discovered += r.discovered_ee;
        cumulative_promoted += r.promotions;
        if cumulative_promoted > cumulative_discovered {
            errors.push(format!(
                "{ctx}: cumulative promotions ({cumulative_promoted}) > cumulative \
                 discoveries ({cumulative_discovered})"
            ));
        }
        if r.promoted_total < prev_total {
            errors.push(format!(
                "{ctx}: promoted_total ({}) shrank from {prev_total}",
                r.promoted_total
            ));
        }
        if r.promoted_total < r.promotions {
            errors.push(format!(
                "{ctx}: promoted_total ({}) < promotions this round ({})",
                r.promoted_total, r.promotions
            ));
        }
        if r.generation < prev_generation {
            errors.push(format!(
                "{ctx}: generation ({}) went backwards from {prev_generation}",
                r.generation
            ));
        }
        if r.eval_linked > r.eval_total {
            errors.push(format!(
                "{ctx}: eval_linked ({}) > eval_total ({})",
                r.eval_linked, r.eval_total
            ));
        }
        if !(0.0..=1.0).contains(&r.ee_linked_accuracy) {
            errors.push(format!(
                "{ctx}: ee_linked_accuracy ({}) outside [0, 1]",
                r.ee_linked_accuracy
            ));
        }
        prev_total = r.promoted_total;
        prev_generation = r.generation;
    }
    errors
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: streaming_check <BENCH_streaming.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let (rounds, flags) = match parse_report(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    let errors = validate(&rounds, flags);
    if errors.is_empty() {
        let last = rounds.last().map_or(0.0, |r| r.ee_linked_accuracy);
        println!(
            "streaming_check: {} rounds hold (final EE linked accuracy {last:.4}, \
             deterministic, WAL-consistent, compaction-equivalent)",
            rounds.len()
        );
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("{e}");
        }
        eprintln!("streaming_check: {} violation(s) in {path}", errors.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn row(
        day: u64,
        discovered: u64,
        promotions: u64,
        total: u64,
        generation: u64,
        linked: u64,
        of: u64,
        accuracy: f64,
    ) -> String {
        format!(
            "    {{\"day\": {day}, \"docs\": 20, \"gold_ee_mentions\": 30, \
             \"discovered_ee\": {discovered}, \"promotions\": {promotions}, \
             \"promoted_total\": {total}, \"delta_entities\": {total}, \
             \"generation\": {generation}, \"eval_linked\": {linked}, \
             \"eval_total\": {of}, \"ee_linked_accuracy\": {accuracy:.6}}}"
        )
    }

    fn report(rows: &[String], flag_overrides: &[(&str, bool)]) -> String {
        let mut flags = vec![
            ("virtual_deterministic", true),
            ("accuracy_monotone", true),
            ("accuracy_improved", true),
            ("wal_replay_consistent", true),
            ("compaction_equivalent", true),
        ];
        for (key, value) in flag_overrides {
            for f in &mut flags {
                if f.0 == *key {
                    f.1 = *value;
                }
            }
        }
        let mut out = String::from("{\n");
        for (key, value) in flags {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        }
        out.push_str("  \"rounds\": [\n");
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"kb_metrics\": {\n    \"kb_wal_records\": 5\n  }\n}\n");
        out
    }

    fn good_rows() -> Vec<String> {
        vec![
            row(0, 40, 5, 5, 1, 10, 100, 0.10),
            row(1, 35, 8, 13, 2, 30, 100, 0.30),
            row(2, 20, 0, 13, 2, 30, 100, 0.30),
        ]
    }

    #[test]
    fn clean_report_passes() {
        let (rounds, flags) = parse_report(&report(&good_rows(), &[])).unwrap();
        assert_eq!(rounds.len(), 3);
        assert!(validate(&rounds, flags).is_empty());
    }

    #[test]
    fn false_flags_are_violations() {
        for key in [
            "virtual_deterministic",
            "accuracy_monotone",
            "accuracy_improved",
            "wal_replay_consistent",
            "compaction_equivalent",
        ] {
            let (rounds, flags) =
                parse_report(&report(&good_rows(), &[(key, false)])).unwrap();
            assert_eq!(validate(&rounds, flags).len(), 1, "{key} must be checked");
        }
    }

    #[test]
    fn promotion_conservation_is_enforced() {
        let rows = vec![row(0, 3, 10, 10, 1, 5, 100, 0.05)];
        let (rounds, flags) = parse_report(&report(&rows, &[])).unwrap();
        let errors = validate(&rounds, flags);
        assert!(
            errors.iter().any(|e| e.contains("exceed available discovered evidence")),
            "{errors:?}"
        );
    }

    #[test]
    fn shrinking_totals_and_backwards_generations_fail() {
        let rows = vec![
            row(0, 40, 5, 5, 2, 10, 100, 0.10),
            row(1, 40, 2, 4, 1, 10, 100, 0.10),
        ];
        let (rounds, flags) = parse_report(&report(&rows, &[])).unwrap();
        let errors = validate(&rounds, flags);
        assert!(errors.iter().any(|e| e.contains("shrank")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("went backwards")), "{errors:?}");
    }

    #[test]
    fn linked_beyond_total_fails() {
        let rows = vec![row(0, 40, 5, 5, 1, 101, 100, 1.0)];
        let (rounds, flags) = parse_report(&report(&rows, &[])).unwrap();
        assert!(validate(&rounds, flags)
            .iter()
            .any(|e| e.contains("eval_linked")));
    }

    #[test]
    fn malformed_rows_and_missing_flags_are_errors() {
        assert!(parse_report("{\n  \"rounds\": [\n    {\"day\": }\n  ]\n}").is_err());
        let no_flags = format!(
            "{{\n  \"rounds\": [\n{}\n  ]\n}}\n",
            good_rows().join(",\n")
        );
        assert!(parse_report(&no_flags).unwrap_err().contains("virtual_deterministic"));
    }

    #[test]
    fn real_bench_shape_parses() {
        // The exact row shape `bench_streaming` writes.
        let line = "    {\"day\": 0, \"docs\": 20, \"gold_ee_mentions\": 32, \
                    \"discovered_ee\": 121, \"promotions\": 20, \"promoted_total\": 20, \
                    \"delta_entities\": 20, \"generation\": 1, \"eval_linked\": 53, \
                    \"eval_total\": 229, \"ee_linked_accuracy\": 0.231441}";
        let round = parse_round(line).unwrap();
        assert_eq!(round.discovered_ee, 121);
        assert!((round.ee_linked_accuracy - 0.231441).abs() < 1e-9);
    }
}
