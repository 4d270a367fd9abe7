//! Parameter checkpointing.
//!
//! Serialises a [`ParamStore`] to a line-oriented text format so trained
//! models can be saved and reloaded without retraining (the architecture is
//! reconstructed by the caller; parameters are matched by name, so the
//! rebuild must register the same parameters in the same order).
//!
//! Format:
//!
//! ```text
//! #cohortnet-params v1
//! param <name> <rows> <cols> <v0> <v1> ...
//! ```

use crate::matrix::Matrix;
use crate::param::ParamStore;
use std::fmt::Write as _;

/// Errors raised while parsing a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Missing or wrong header.
    BadHeader,
    /// Malformed record at a 1-based line number.
    BadRecord(usize),
    /// The checkpoint does not match the store's registered parameters.
    Mismatch(String),
    /// A value of the named parameter is `NaN` or infinite (a diverged
    /// run): loading it would score `null` probabilities.
    NonFinite(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadHeader => write!(f, "missing #cohortnet-params v1 header"),
            CheckpointError::BadRecord(n) => write!(f, "malformed record at line {n}"),
            CheckpointError::Mismatch(what) => write!(f, "checkpoint mismatch: {what}"),
            CheckpointError::NonFinite(name) => {
                write!(f, "parameter {name:?} holds a non-finite value")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serialises all parameter values (gradients are not persisted).
pub fn save_params(store: &ParamStore) -> String {
    let mut out = String::from("#cohortnet-params v1\n");
    for e in store.entries() {
        let _ = write!(
            out,
            "param\t{}\t{}\t{}",
            e.name,
            e.value.rows(),
            e.value.cols()
        );
        for v in e.value.as_slice() {
            let _ = write!(out, "\t{v}");
        }
        out.push('\n');
    }
    out
}

/// Loads values into an already-constructed store (same architecture).
///
/// Parameters are matched positionally and validated by name and shape, so
/// drift between the saved and reconstructed architecture is an error
/// rather than silent corruption.
pub fn load_params(store: &mut ParamStore, text: &str) -> Result<(), CheckpointError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == "#cohortnet-params v1" => {}
        _ => return Err(CheckpointError::BadHeader),
    }
    let mut parsed: Vec<(String, Matrix)> = Vec::new();
    for (idx, line) in lines {
        let n = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        if parts.next() != Some("param") {
            return Err(CheckpointError::BadRecord(n));
        }
        let name = parts
            .next()
            .ok_or(CheckpointError::BadRecord(n))?
            .to_string();
        let rows: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(CheckpointError::BadRecord(n))?;
        let cols: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(CheckpointError::BadRecord(n))?;
        let values: Result<Vec<f32>, _> = parts
            .map(|s| s.parse::<f32>().map_err(|_| CheckpointError::BadRecord(n)))
            .collect();
        let values = values?;
        if values.len() != rows * cols {
            return Err(CheckpointError::BadRecord(n));
        }
        if !values.iter().all(|v| v.is_finite()) {
            return Err(CheckpointError::NonFinite(name));
        }
        parsed.push((name, Matrix::from_vec(rows, cols, values)));
    }
    if parsed.len() != store.len() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {} params, store has {}",
            parsed.len(),
            store.len()
        )));
    }
    // Validate before mutating anything.
    for ((name, value), entry) in parsed.iter().zip(store.entries()) {
        if *name != entry.name {
            return Err(CheckpointError::Mismatch(format!(
                "parameter name {name:?} does not match registered {:?}",
                entry.name
            )));
        }
        if value.shape() != entry.value.shape() {
            return Err(CheckpointError::Mismatch(format!(
                "parameter {name}: shape {:?} vs registered {:?}",
                value.shape(),
                entry.value.shape()
            )));
        }
    }
    for ((_, value), entry) in parsed.into_iter().zip(store.entries_mut()) {
        entry.value = value;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn store() -> ParamStore {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        ps.register("layer.w", init::xavier_uniform(&mut rng, 3, 4));
        ps.register("layer.b", Matrix::zeros(1, 4));
        ps
    }

    #[test]
    fn save_load_round_trip() {
        let original = store();
        let text = save_params(&original);
        let mut fresh = store(); // same architecture, different values
        fresh.value_mut(crate::param::ParamId(0)).fill_zero();
        load_params(&mut fresh, &text).unwrap();
        for (a, b) in original.entries().zip(fresh.entries()) {
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn rejects_wrong_architecture() {
        let original = store();
        let text = save_params(&original);
        let mut other = ParamStore::new();
        other.register("layer.w", Matrix::zeros(3, 4));
        assert!(matches!(
            load_params(&mut other, &text),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn rejects_renamed_param() {
        let original = store();
        let text = save_params(&original).replace("layer.b", "layer.bias");
        let mut fresh = store();
        assert!(matches!(
            load_params(&mut fresh, &text),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn rejects_bad_header_and_records() {
        let mut fresh = store();
        assert_eq!(
            load_params(&mut fresh, "junk"),
            Err(CheckpointError::BadHeader)
        );
        let text = "#cohortnet-params v1\nparam\tw\t2\t2\t1.0\n"; // 1 value for 2x2
        assert!(matches!(
            load_params(&mut fresh, text),
            Err(CheckpointError::BadRecord(2))
        ));
    }

    #[test]
    fn rejects_non_finite_values() {
        let text = save_params(&store());
        for bad in ["NaN", "inf", "-inf"] {
            // Replace the first value of `layer.b` (all zeros).
            let tampered = text.replacen("\t1\t4\t0", &format!("\t1\t4\t{bad}"), 1);
            assert_ne!(tampered, text, "fixture must contain the needle");
            let mut fresh = store();
            assert_eq!(
                load_params(&mut fresh, &tampered),
                Err(CheckpointError::NonFinite("layer.b".into())),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn failed_load_leaves_store_untouched() {
        let mut fresh = store();
        let before: Vec<Matrix> = fresh.entries().map(|e| e.value.clone()).collect();
        let text = save_params(&store()).replace("layer.b", "layer.bias");
        let _ = load_params(&mut fresh, &text);
        for (b, e) in before.iter().zip(fresh.entries()) {
            assert_eq!(*b, e.value);
        }
    }
}
