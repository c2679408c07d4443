//! Digests of simulated outputs, and the table of committed ones.
//!
//! Every operation a workload runs (an engine cell, or a serve load
//! point) is reduced to a 64-bit FNV-1a digest of its deterministic
//! output JSON. `digests.txt` in this directory holds the expected
//! digest of every operation at the default seed, per workload and
//! scale. A run at another seed finds no entry and checks invariants
//! only.

use std::collections::BTreeMap;

/// The committed digest table, compiled in.
pub const COMMITTED: &str = include_str!("../digests.txt");

/// 64-bit FNV-1a.
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Expected digests keyed by `(workload, scale, seed, operation)`.
#[derive(Debug, Clone, Default)]
pub struct DigestTable {
    entries: BTreeMap<(String, String, u64, String), u64>,
}

impl DigestTable {
    /// Parse `workload scale seed operation hex` lines; `#` starts a
    /// comment line.
    pub fn parse(text: &str) -> Result<DigestTable, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [workload, scale, seed, op, hex] = f[..] else {
                return Err(format!(
                    "digests line {}: want 5 fields, got {}",
                    n + 1,
                    f.len()
                ));
            };
            let seed = seed
                .parse()
                .map_err(|e| format!("digests line {}: seed: {e}", n + 1))?;
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("digests line {}: digest: {e}", n + 1))?;
            let key = (
                workload.to_string(),
                scale.to_string(),
                seed,
                op.to_string(),
            );
            if entries.insert(key, digest).is_some() {
                return Err(format!("digests line {}: duplicate entry", n + 1));
            }
        }
        Ok(DigestTable { entries })
    }

    /// The committed table.
    pub fn committed() -> DigestTable {
        DigestTable::parse(COMMITTED).expect("committed digests.txt is well-formed")
    }

    /// Whether any digest is committed for this workload run.
    pub fn covers(&self, workload: &str, scale: &str, seed: u64) -> bool {
        !self.ops(workload, scale, seed).is_empty()
    }

    /// The operations with a committed digest for this workload run.
    pub fn ops(&self, workload: &str, scale: &str, seed: u64) -> Vec<&str> {
        self.entries
            .keys()
            .filter(|(w, s, sd, _)| w == workload && s == scale && *sd == seed)
            .map(|(_, _, _, op)| op.as_str())
            .collect()
    }

    /// The expected digest of one operation, if committed.
    pub fn get(&self, workload: &str, scale: &str, seed: u64, op: &str) -> Option<u64> {
        self.entries
            .get(&(
                workload.to_string(),
                scale.to_string(),
                seed,
                op.to_string(),
            ))
            .copied()
    }

    /// Replace one digest (used to prove that a corrupted digest fails).
    pub fn set(&mut self, workload: &str, scale: &str, seed: u64, op: &str, digest: u64) {
        self.entries.insert(
            (
                workload.to_string(),
                scale.to_string(),
                seed,
                op.to_string(),
            ),
            digest,
        );
    }
}

/// One line of `digests.txt`.
pub fn line(workload: &str, scale: &str, seed: u64, op: &str, digest: u64) -> String {
    format!("{workload} {scale} {seed} {op} {digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn table_round_trips_and_rejects_malformed_lines() {
        let text = format!("# comment\n{}\n", line("serve", "full", 42, "op/a", 0xabc));
        let t = DigestTable::parse(&text).unwrap();
        assert_eq!(t.get("serve", "full", 42, "op/a"), Some(0xabc));
        assert!(t.covers("serve", "full", 42));
        assert_eq!(t.ops("serve", "full", 42), ["op/a"]);
        assert!(!t.covers("serve", "full", 7));
        assert!(DigestTable::parse("serve full 42 op").is_err());
        assert!(DigestTable::parse("serve full x op 00").is_err());
        assert!(DigestTable::parse(&format!("{text}{text}")).is_err());
        DigestTable::committed();
    }
}
