//! Snapshot contract: `save → load → save` is byte-identical, a loaded
//! model scores bit-identically to the in-memory one, and inconsistent or
//! corrupt artifacts are rejected with descriptive typed errors.

mod common;

use cohortnet::config::CohortNetConfig;
use cohortnet::infer::Inferencer;
use cohortnet::model::CohortNetModel;
use cohortnet::snapshot::{load_snapshot, save_snapshot, SnapshotError};
use cohortnet::stream::{StreamConfig, StreamEvent, StreamSession};
use cohortnet_ehr::{generate_event_streams, EventStreamConfig};
use cohortnet_models::data::make_batch;
use cohortnet_tensor::checkpoint::CheckpointError;
use cohortnet_tensor::ParamStore;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn save_load_save_is_byte_identical() {
    let (trained, _, scaler, time_steps) = common::tiny_trained();
    let text = save_snapshot(&trained.model, &trained.params, &scaler, time_steps);
    let loaded = load_snapshot(&text).expect("snapshot loads");
    assert_eq!(loaded.time_steps, time_steps);
    assert!(loaded.model.discovery.is_some());
    let again = save_snapshot(
        &loaded.model,
        &loaded.params,
        &loaded.scaler,
        loaded.time_steps,
    );
    assert_eq!(text, again, "save -> load -> save drifted");
}

#[test]
fn save_load_save_without_discovery() {
    let mut c = cohortnet_ehr::profiles::mimic3_like(0.05);
    c.n_patients = 10;
    c.time_steps = 3;
    let mut ds = cohortnet_ehr::synth::generate(&c);
    let scaler = cohortnet_ehr::standardize::Standardizer::fit(&ds);
    scaler.apply(&mut ds);
    let cfg = CohortNetConfig::for_dataset(&ds, &scaler);
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(3);
    let model = CohortNetModel::new(&mut ps, &mut rng, &cfg);
    let text = save_snapshot(&model, &ps, &scaler, 3);
    let loaded = load_snapshot(&text).expect("snapshot loads");
    assert!(loaded.model.discovery.is_none());
    let again = save_snapshot(
        &loaded.model,
        &loaded.params,
        &loaded.scaler,
        loaded.time_steps,
    );
    assert_eq!(text, again);
}

#[test]
fn loaded_model_scores_bit_identically() {
    let (trained, prep, scaler, time_steps) = common::tiny_trained();
    let text = save_snapshot(&trained.model, &trained.params, &scaler, time_steps);
    let loaded = load_snapshot(&text).expect("snapshot loads");

    let in_memory = Inferencer::compile(&trained.model, &trained.params, time_steps);
    let from_disk = loaded.inferencer();
    let batch = make_batch(&prep, &(0..8).collect::<Vec<_>>());
    let a = in_memory.score(&batch.steps, &batch.mask);
    let b = from_disk.score(&batch.steps, &batch.mask);
    assert_eq!(a.logits.shape(), b.logits.shape());
    for (x, y) in a.logits.as_slice().iter().zip(b.logits.as_slice()) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "loaded model scored differently from the in-memory model"
        );
    }
    for (x, y) in a.probs.as_slice().iter().zip(b.probs.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// Snapshots are model state only — streaming sessions are **excluded by
/// design** (they are ephemeral and replayable from their event history).
/// A snapshot saved mid-stream is byte-identical to one saved before any
/// ingestion, and a cold reload of that snapshot re-scores a replayed
/// session bit-identically to the live one.
#[test]
fn mid_stream_snapshot_excludes_sessions_and_reloads_identically() {
    let (trained, _, scaler, time_steps) = common::tiny_trained();
    let cold = save_snapshot(&trained.model, &trained.params, &scaler, time_steps);

    let inf = Inferencer::compile(&trained.model, &trained.params, time_steps);
    let cfg = StreamConfig::for_inferencer(&inf, 48.0);
    let events: Vec<StreamEvent> = generate_event_streams(&EventStreamConfig {
        n_admissions: 1,
        n_features: 20,
        events_per_feature: 3,
        seed: 0x51ab,
        ..EventStreamConfig::default()
    })[0]
        .events
        .iter()
        .map(|e| StreamEvent {
            feature: e.feature,
            ts: e.ts,
            value: e.value,
        })
        .collect();

    let mut live = StreamSession::new(cfg, scaler.clone());
    for ev in &events {
        live.ingest(*ev).unwrap();
    }
    let live_score = live.score(&inf);

    // Mid-stream save: the session leaves no trace in the artifact.
    let mid = save_snapshot(&trained.model, &trained.params, &scaler, time_steps);
    assert_eq!(cold, mid, "a live session leaked into the snapshot");

    // Cold reload: a fresh process replays the event history and lands on
    // the exact same bits the live session produced.
    let loaded = load_snapshot(&mid).expect("snapshot loads");
    let inf2 = loaded.inferencer();
    let mut rebuilt = StreamSession::new(
        StreamConfig::for_inferencer(&inf2, 48.0),
        loaded.scaler.clone(),
    );
    for ev in &events {
        rebuilt.ingest(*ev).unwrap();
    }
    let rebuilt_score = rebuilt.score(&inf2);
    for (a, b) in live_score
        .output
        .probs
        .as_slice()
        .iter()
        .zip(rebuilt_score.output.probs.as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "cold-reload re-score drifted");
    }
    for (a, b) in live_score
        .output
        .logits
        .as_slice()
        .iter()
        .zip(rebuilt_score.output.logits.as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "cold-reload re-score drifted");
    }
    assert_eq!(
        live.window_start().to_bits(),
        rebuilt.window_start().to_bits(),
        "replay must land on the same window position"
    );
}

// ---- rejection paths -------------------------------------------------------

/// FNV-1a 64 (the snapshot checksum function), local copy for re-tagging
/// tampered sections.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Applies `edit` to the named section's payload and rewrites that section's
/// header (line count + checksum) so the tampering is *consistent* — the
/// checksum passes and the loader must catch the semantic problem itself.
fn tamper(text: &str, section: &str, edit: impl Fn(&str) -> String) -> String {
    let mut out = String::new();
    let mut lines = text.lines().peekable();
    // Header line.
    out.push_str(lines.next().expect("snapshot header"));
    out.push('\n');
    while let Some(line) = lines.next() {
        let parts: Vec<&str> = line.split(' ').collect();
        assert_eq!(parts[0], "#section", "expected a section header: {line}");
        let name = parts[1];
        let n: usize = parts[2].parse().expect("line count");
        let mut payload = String::new();
        for _ in 0..n {
            payload.push_str(lines.next().expect("payload line"));
            payload.push('\n');
        }
        let payload = if name == section {
            edit(&payload)
        } else {
            payload
        };
        let count = payload.lines().count();
        let sum = fnv64(payload.as_bytes());
        out.push_str(&format!("#section {name} {count} {sum:016x}\n"));
        out.push_str(&payload);
    }
    out
}

fn snapshot_text() -> String {
    let (trained, _, scaler, time_steps) = common::tiny_trained();
    save_snapshot(&trained.model, &trained.params, &scaler, time_steps)
}

#[test]
fn rejects_wrong_header() {
    let text = snapshot_text().replace("#cohortnet-snapshot v1", "#cohortnet-snapshot v9");
    assert!(matches!(
        load_snapshot(&text),
        Err(SnapshotError::BadHeader)
    ));
}

#[test]
fn rejects_corrupt_section_payload() {
    // Flip one digit inside the params payload without re-tagging the
    // checksum: the section must fail the integrity check.
    let text = snapshot_text();
    let needle = "param\tmflm.biel0.a";
    let idx = text.find(needle).expect("params payload present");
    let mut bytes = text.into_bytes();
    bytes[idx + needle.len() + 10] ^= 0x01;
    let text = String::from_utf8(bytes).expect("still utf-8");
    match load_snapshot(&text).err() {
        Some(SnapshotError::Checksum { section, .. }) => assert_eq!(section, "params"),
        other => panic!("expected a checksum error, got {other:?}"),
    }
}

#[test]
fn rejects_k_states_disagreement() {
    // The states section claims a different k than the config: the fixture
    // trains with k_states = 4, so re-tag the states payload to k = 3.
    let text = tamper(&snapshot_text(), "states", |payload| {
        payload.replacen("k\t4", "k\t3", 1)
    });
    match load_snapshot(&text).err() {
        Some(SnapshotError::Mismatch(why)) => {
            assert!(why.contains("k_states"), "undescriptive error: {why}")
        }
        other => panic!("expected a mismatch error, got {other:?}"),
    }
}

#[test]
fn rejects_feature_count_disagreement() {
    // Drop the last feature from both scaler rows: the scaler then parses
    // fine but covers fewer features than the config declares.
    let text = tamper(&snapshot_text(), "scaler", |payload| {
        payload
            .lines()
            .map(|l| {
                if l.starts_with("mean\t") || l.starts_with("std\t") {
                    let cut = l.rfind(',').expect("has several values");
                    l[..cut].to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n"
    });
    match load_snapshot(&text).err() {
        Some(SnapshotError::Mismatch(why)) => {
            assert!(why.contains("features"), "undescriptive error: {why}")
        }
        other => panic!("expected a mismatch error, got {other:?}"),
    }
}

#[test]
fn rejects_architecture_drift() {
    // Shrink d_hidden in the config: validate() passes, but the embedded
    // weights no longer fit the architecture the config implies.
    let text = tamper(&snapshot_text(), "config", |payload| {
        payload.replacen("d_hidden=16", "d_hidden=8", 1)
    });
    match load_snapshot(&text).err() {
        Some(SnapshotError::Params(_)) => {}
        other => panic!("expected a params mismatch, got {other:?}"),
    }
}

#[test]
fn rejects_invalid_config() {
    // k_states above the 4-bit pattern-key ceiling must be rejected by the
    // re-run of CohortNetConfig::validate().
    let text = tamper(&snapshot_text(), "config", |payload| {
        payload.replacen("k_states=4", "k_states=16", 1)
    });
    match load_snapshot(&text).err() {
        Some(SnapshotError::Config(why)) => {
            assert!(why.contains("k_states"), "undescriptive error: {why}")
        }
        other => panic!("expected a config error, got {other:?}"),
    }
    // As must a zero grid length.
    let text = tamper(&snapshot_text(), "config", |payload| {
        payload.replacen("time_steps=4", "time_steps=0", 1)
    });
    match load_snapshot(&text).err() {
        Some(SnapshotError::Config(why)) => {
            assert!(why.contains("time_steps"), "undescriptive error: {why}")
        }
        other => panic!("expected a config error, got {other:?}"),
    }
    // As must a feature bound that is inverted or not finite: BiEL clamps
    // every value into it, and `f32::clamp` panics on `lo > hi` or NaN.
    for bad in ["2:1", "NaN:1", "-1:NaN", "-inf:1", "0:inf"] {
        let text = tamper(&snapshot_text(), "config", |payload| {
            let start = payload.find("bounds=").expect("bounds line") + "bounds=".len();
            let end = start + payload[start..].find([',', '\n']).expect("first pair");
            format!("{}{bad}{}", &payload[..start], &payload[end..])
        });
        match load_snapshot(&text).err() {
            Some(SnapshotError::Config(why)) => {
                assert!(
                    why.contains("bounds"),
                    "undescriptive error for {bad}: {why}"
                )
            }
            other => panic!("bound {bad}: expected a config error, got {other:?}"),
        }
    }
}

#[test]
fn rejects_partial_discovery_sections() {
    let text = tamper(&snapshot_text(), "pool", |_| "none\n".to_string());
    match load_snapshot(&text).err() {
        Some(SnapshotError::Mismatch(why)) => {
            assert!(why.contains("discovery"), "undescriptive error: {why}")
        }
        other => panic!("expected a mismatch error, got {other:?}"),
    }
}

#[test]
fn rejects_non_finite_params() {
    // A diverged run's snapshot with consistent checksums: every
    // non-finite spelling `f32::from_str` accepts must be refused, naming
    // the tensor, instead of loading and scoring `null` probabilities.
    let text = snapshot_text();
    for bad in ["NaN", "inf", "-inf"] {
        let tampered = tamper(&text, "params", |payload| {
            payload
                .lines()
                .map(|l| {
                    if l.starts_with("param\tmflm.biel0.a\t") {
                        let mut fields: Vec<&str> = l.split('\t').collect();
                        fields[4] = bad; // first value after name/rows/cols
                        fields.join("\t")
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
                + "\n"
        });
        assert_ne!(tampered, text, "fixture must contain mflm.biel0.a");
        match load_snapshot(&tampered).err() {
            Some(SnapshotError::Params(CheckpointError::NonFinite(name))) => {
                assert_eq!(name, "mflm.biel0.a", "{bad}: wrong tensor named")
            }
            other => panic!("{bad}: expected a non-finite params error, got {other:?}"),
        }
    }
}
