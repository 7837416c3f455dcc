//! Property tests of the protocol decoder against hostile bytes.
//!
//! A frame that passes its CRC can still hold anything: a buggy or
//! compromised worker checksums whatever it writes. The head decodes
//! every such frame on a reader thread, and its contract is that a bad
//! message costs one worker (a decode error: kill + requeue), never the
//! run. So for arbitrary bytes, and for every truncation and every
//! single-byte mutation of a valid encoded message, `decode` must return
//! `Ok` or `Err` and never panic; generated messages must round-trip
//! exactly.

use proptest::prelude::*;
use relcnn_cluster::proto::{decode, encode};
use relcnn_cluster::{ChaosPlan, FromWorker, JobSpec, ToWorker};
use relcnn_obs::trace::{ArgValue, ThreadSnapshot, TraceArg, TraceRecord, TraceSnapshot};

/// The raw material one message is built from: a variant selector,
/// six integers and the bytes of its text fields.
type Parts = (u8, Vec<u64>, Vec<u8>);

fn parts() -> impl Strategy<Value = Parts> {
    (
        any::<u8>(),
        collection::vec(any::<u64>(), 6),
        collection::vec(any::<u8>(), 0..24),
    )
}

/// Text holding every character class the writer escapes or widens:
/// quotes, backslashes, control characters and 2-, 3- and 4-byte
/// scalars between ASCII letters.
fn text(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|&b| match b % 8 {
            0 => '"',
            1 => '\\',
            2 => char::from(b % 0x20),
            3 => '\u{e9}',
            4 => '\u{20ac}',
            5 => '\u{1f6d1}',
            _ => char::from(b'a' + b % 26),
        })
        .collect()
}

fn to_worker((kind, n, t): &Parts) -> ToWorker {
    match kind % 3 {
        0 => ToWorker::Setup {
            worker: n[0] as usize,
            job: JobSpec {
                workload: text(t),
                trials: n[1],
                seed: n[2],
                shards: n[3] as usize,
                chunk: n[4],
                threads: n[5] as usize,
            },
            chaos: [
                ChaosPlan::none(),
                ChaosPlan::kill_one(n[2], 4),
                ChaosPlan::corrupt_one(n[2], 4),
                ChaosPlan::hang_one(n[2], 4),
            ][usize::from(kind / 3 % 4)],
            trace: kind & 0x80 != 0,
        },
        1 => ToWorker::Assign {
            task: n[0] as usize,
            shard_lo: n[1] as usize,
            shard_hi: n[2] as usize,
        },
        _ => ToWorker::Shutdown,
    }
}

fn from_worker((kind, n, t): &Parts) -> FromWorker {
    let worker = n[0] as usize;
    match kind % 4 {
        0 => FromWorker::Hello { worker },
        1 => FromWorker::Heartbeat { worker },
        2 => {
            let (partial, payload) = t.split_at(t.len() / 2);
            FromWorker::Done {
                worker,
                task: n[1] as usize,
                partial: text(partial),
                payload: text(payload),
            }
        }
        _ => FromWorker::Trace {
            worker,
            snapshot: TraceSnapshot {
                process: text(t),
                threads: vec![ThreadSnapshot {
                    tid: n[1],
                    label: "tasks".into(),
                    recorded_events: n[2],
                    dropped_events: n[3],
                    records: vec![
                        TraceRecord::Span {
                            seq: 0,
                            name: "task".into(),
                            cat: "cluster".into(),
                            begin_us: n[4],
                            end_us: n[5],
                            args: vec![
                                TraceArg {
                                    key: "task".into(),
                                    value: ArgValue::U64(n[1]),
                                },
                                TraceArg {
                                    key: "delta".into(),
                                    value: ArgValue::I64(n[2] as i64),
                                },
                                TraceArg {
                                    key: "note".into(),
                                    value: ArgValue::Str(text(t)),
                                },
                            ],
                        },
                        TraceRecord::Instant {
                            seq: 1,
                            name: "chaos_kill".into(),
                            cat: "cluster".into(),
                            ts_us: n[5],
                            args: Vec::new(),
                        },
                    ],
                }],
            },
        },
    }
}

/// Bytes that steer a parser: structure, string delimiters and escapes,
/// number characters, keyword letters, and invalid UTF-8.
const HOSTILE: &[u8] = b"{}[]:,\"\\u0123456789-+.eEtrufalsn \n\x00\xc3\xa9\xe2\xf0\xff";

/// The replacement bytes tried at every position of a wire image: one
/// per parser decision (structure, string, escape, number, whitespace,
/// invalid UTF-8). The property adds a drawn byte and a high-bit flip.
const MUTANTS: &[u8] = b"{}[]:,\"\\0-e \xff";

fn fail(e: String) -> TestCaseError {
    TestCaseError::fail(e)
}

/// A mutated image may still decode: it must then be a message that
/// re-encodes and decodes to itself.
fn check_mutant<T>(bad: &[u8]) -> Result<(), TestCaseError>
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    if let Ok(msg) = decode::<T>(bad) {
        prop_assert_eq!(decode::<T>(&encode(&msg)).map_err(fail)?, msg);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_messages_roundtrip(parts in parts()) {
        let to = to_worker(&parts);
        prop_assert_eq!(decode::<ToWorker>(&encode(&to)).map_err(fail)?, to);
        let from = from_worker(&parts);
        prop_assert_eq!(decode::<FromWorker>(&encode(&from)).map_err(fail)?, from);
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        raw in collection::vec(any::<u8>(), 0..600),
        shaped in collection::vec(prop::sample::select(HOSTILE.to_vec()), 0..600),
    ) {
        // Returning at all is the property: the results are irrelevant.
        for bytes in [&raw, &shaped] {
            let _ = decode::<ToWorker>(bytes);
            let _ = decode::<FromWorker>(bytes);
        }
    }

    #[test]
    fn every_truncation_is_an_error(parts in parts()) {
        for wire in [encode(&to_worker(&parts)), encode(&from_worker(&parts))] {
            for keep in 0..wire.len() {
                let cut = &wire[..keep];
                prop_assert!(
                    decode::<ToWorker>(cut).is_err() && decode::<FromWorker>(cut).is_err(),
                    "{keep}-byte prefix of {} decoded", String::from_utf8_lossy(&wire)
                );
            }
        }
    }
}

proptest! {
    // Each case decodes two images at every position × 15 replacements.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_single_byte_mutation_never_panics(parts in parts(), extra in any::<u8>()) {
        let to = encode(&to_worker(&parts));
        let from = encode(&from_worker(&parts));
        for (wire, is_to) in [(&to, true), (&from, false)] {
            for pos in 0..wire.len() {
                for b in MUTANTS.iter().copied().chain([extra, wire[pos] ^ 0x80]) {
                    let mut bad = wire.clone();
                    bad[pos] = b;
                    if is_to {
                        check_mutant::<ToWorker>(&bad)?;
                    } else {
                        check_mutant::<FromWorker>(&bad)?;
                    }
                }
            }
        }
    }
}
