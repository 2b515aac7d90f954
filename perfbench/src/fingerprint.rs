//! Workload fingerprints: what a run measured, independent of how fast.
//!
//! Two sets of numbers are comparable only if they measured the same
//! work. A fingerprint pins that work down — the generated inputs (as a
//! hash), how many instances one repetition runs, how many frames the
//! engines classified and what the program answered (as a digest of the
//! checked outputs). A comparison between runs whose fingerprints differ
//! is refused rather than diffed.
//!
//! The simulated event count is recorded too. It is a property of the
//! program's event model rather than of the workload — an optimisation
//! that removes events is exactly what the benchmark should be able to
//! judge — so a difference there is reported, not refused.

use std::fmt;

/// FNV-1a 64-bit hash, the digest used throughout the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the hash.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a string plus a separator, so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    /// Folds an integer (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one string.
pub fn fnv(s: &str) -> u64 {
    Fnv::default().str(s).finish()
}

/// The identity of one run's work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Scenario instances one repetition runs.
    pub instances: u64,
    /// Frames the engines classified in one repetition.
    pub classified: u64,
    /// Hash of the generated inputs (FSL text and parameters).
    pub config_hash: u64,
    /// Digest of the checked outputs of one repetition.
    pub output_digest: u64,
    /// Simulated events in one repetition.
    pub sim_events: u64,
}

/// Why two fingerprints do not describe the same work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The fields that differ, rendered `field: base -> new`.
    pub fields: Vec<String>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fingerprints differ ({}); refusing to compare",
            self.fields.join(", ")
        )
    }
}

impl Fingerprint {
    /// Checks that `new` measured the same work as `self`. Returns the
    /// identity fields that differ; a differing simulated event count is
    /// not one of them (see the module docs) — read it from
    /// [`events_note`](Fingerprint::events_note).
    ///
    /// # Errors
    ///
    /// A [`Mismatch`] naming every differing identity field.
    pub fn check_comparable(&self, new: &Fingerprint) -> Result<(), Mismatch> {
        let mut fields = Vec::new();
        let mut cmp = |name: &str, a: String, b: String| {
            if a != b {
                fields.push(format!("{name}: {a} -> {b}"));
            }
        };
        cmp("workload", self.workload.clone(), new.workload.clone());
        cmp("seed", self.seed.to_string(), new.seed.to_string());
        cmp(
            "instances",
            self.instances.to_string(),
            new.instances.to_string(),
        );
        cmp(
            "classified",
            self.classified.to_string(),
            new.classified.to_string(),
        );
        cmp(
            "config_hash",
            format!("{:016x}", self.config_hash),
            format!("{:016x}", new.config_hash),
        );
        cmp(
            "output_digest",
            format!("{:016x}", self.output_digest),
            format!("{:016x}", new.output_digest),
        );
        if fields.is_empty() {
            Ok(())
        } else {
            Err(Mismatch { fields })
        }
    }

    /// A note when the simulated event count changed between two
    /// otherwise comparable runs.
    pub fn events_note(&self, new: &Fingerprint) -> Option<String> {
        (self.sim_events != new.sim_events).then(|| {
            format!(
                "simulated events per repetition changed {} -> {} (the program's event model changed)",
                self.sim_events, new.sim_events
            )
        })
    }

    /// JSON object form, as written into result records.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"instances\":{},\"classified\":{},\
             \"config_hash\":\"{:016x}\",\"output_digest\":\"{:016x}\",\"sim_events\":{}}}",
            self.workload,
            self.seed,
            self.instances,
            self.classified,
            self.config_hash,
            self.output_digest,
            self.sim_events
        )
    }

    /// Reads the form [`to_json`](Fingerprint::to_json) writes.
    pub fn from_json(json: &vw_trace::Json) -> Option<Fingerprint> {
        let obj = json.as_obj()?;
        let num = |k: &str| match obj.get(k)? {
            vw_trace::Json::Num(n) => Some(*n as u64),
            _ => None,
        };
        let hex = |k: &str| match obj.get(k)? {
            vw_trace::Json::Str(s) => u64::from_str_radix(s, 16).ok(),
            _ => None,
        };
        let workload = match obj.get("workload")? {
            vw_trace::Json::Str(s) => s.clone(),
            _ => return None,
        };
        Some(Fingerprint {
            workload,
            seed: num("seed")?,
            instances: num("instances")?,
            classified: num("classified")?,
            config_hash: hex("config_hash")?,
            output_digest: hex("output_digest")?,
            sim_events: num("sim_events")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            workload: "daemon_sweep".into(),
            seed: 7,
            instances: 384,
            classified: 9000,
            config_hash: 0xdead_beef,
            output_digest: 0x1234,
            sim_events: 50_000,
        }
    }

    #[test]
    fn differing_instance_count_is_refused() {
        // The 48-vs-384 comparison: same workload name, different work.
        let base = Fingerprint {
            instances: 48,
            ..fp()
        };
        let err = base.check_comparable(&fp()).unwrap_err();
        assert_eq!(err.fields, vec!["instances: 48 -> 384".to_string()]);
        assert!(err.to_string().contains("refusing"));
    }

    #[test]
    fn differing_outputs_or_inputs_are_refused() {
        let other = Fingerprint {
            output_digest: 0x9999,
            config_hash: 1,
            ..fp()
        };
        let err = fp().check_comparable(&other).unwrap_err();
        assert_eq!(err.fields.len(), 2);
    }

    #[test]
    fn event_count_change_is_noted_not_refused() {
        let fewer = Fingerprint {
            sim_events: 25_000,
            ..fp()
        };
        assert!(fp().check_comparable(&fewer).is_ok());
        assert!(fp().events_note(&fewer).is_some());
        assert!(fp().events_note(&fp()).is_none());
    }

    #[test]
    fn json_round_trip() {
        let f = fp();
        let parsed = vw_trace::Json::parse(&f.to_json()).unwrap();
        assert_eq!(Fingerprint::from_json(&parsed), Some(f));
    }

    #[test]
    fn fnv_separates_fields() {
        let a = Fnv::default().str("ab").str("c").finish();
        let b = Fnv::default().str("a").str("bc").finish();
        assert_ne!(a, b);
        assert_eq!(fnv("x"), Fnv::default().str("x").finish());
    }
}
