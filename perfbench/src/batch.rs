//! One offline pass: pack weights into a model store and load them back
//! under every registered scheme, then round-trip activations through
//! the batch pipeline under every scheme.

use std::path::Path;
use std::time::Instant;

use ss_core::SchemeId;
use ss_pipeline::Pipeline;
use ss_store::{LocalFsProvider, ModelStore, ModelWriter};
use ss_tensor::Tensor;

use crate::inputs::Named;
use crate::stats::OpLog;
use crate::trace::Tracer;

/// Every registered scheme, with the name its metrics use.
pub const SCHEMES: [(SchemeId, &str); 4] = [
    (SchemeId::SHAPESHIFTER, "shapeshifter"),
    (SchemeId::DELTA, "delta"),
    (SchemeId::DPRED, "dpred"),
    (SchemeId::ADABITS, "adabits"),
];

const GROUP_SIZE: u16 = 16;

/// What one or more passes did, by phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// `append_tensor` and `finish` calls.
    pub pack: OpLog,
    /// `open`, `verify` and `get` calls.
    pub load: OpLog,
    /// `encode_batch_with` and `decode_batch_with` calls.
    pub codec: OpLog,
    /// Shard file bits written plus pipeline stream bits.
    pub stored_bits: u64,
    /// Values those bits hold.
    pub stored_values: u64,
    /// Block bytes behind the `get`s.
    pub block_bytes: u64,
    /// Container bytes of the records, summed by `get_raw` (traced passes).
    pub container_bytes: u64,
    /// Shard file bytes of the models those containers sit in.
    pub file_bytes: u64,
}

pub fn pipeline() -> Result<Pipeline, String> {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Pipeline::new(ss_pipeline::PipelineConfig::new().with_workers(workers))
        .map_err(|e| e.to_string())
}

/// Runs one pass over `weights` (store) and `acts` (pipeline). Each
/// round trip is checked to be the identity; a mismatch fails its op.
/// A traced pass also reads every record back with `get_raw`.
pub fn pass(
    dir: &Path,
    weights: &[Named],
    acts: &[Tensor],
    pipeline: &Pipeline,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let provider = LocalFsProvider::new(dir);
    let act_values: u64 = acts.iter().map(|t| t.len() as u64).sum();
    let weight_values: u64 = weights.iter().map(|(_, t)| t.len() as u64).sum();
    for (scheme, label) in SCHEMES {
        let model = format!("m-{label}");
        let mut writer = ModelWriter::new(&provider, &model).with_scheme(scheme, GROUP_SIZE);
        for (i, (name, t)) in weights.iter().enumerate() {
            let t0 = Instant::now();
            let r = tr.span("store.append_tensor", i as u64, t.len() as u64, || {
                writer.append_tensor(name, i as u32, t)
            });
            tally.pack.record(t0.elapsed(), r.is_ok(), t.len() as u64);
        }
        let t0 = Instant::now();
        let summary = tr.span("store.finish", 0, 0, || writer.finish());
        tally.pack.record(t0.elapsed(), summary.is_ok(), 0);
        let file_bytes = summary.map_or(0, |s| s.bytes);
        tally.stored_bits += 8 * file_bytes;
        tally.stored_values += weight_values;

        let t0 = Instant::now();
        let store = tr.span("store.open", 0, 0, || ModelStore::open(&provider, &model));
        tally.load.record(t0.elapsed(), store.is_ok(), 0);
        if let Ok(mut store) = store {
            let t0 = Instant::now();
            let verified = tr.span("store.verify", 0, file_bytes, || store.verify());
            tally.load.record(
                t0.elapsed(),
                verified.is_ok_and(|v| v.records == weights.len()),
                0,
            );
            for (i, (name, t)) in weights.iter().enumerate() {
                tally.block_bytes += store.entry(name).map_or(0, |e| e.block_len);
                let t0 = Instant::now();
                let got = tr.span("store.get", i as u64, t.len() as u64, || store.get(name));
                tally
                    .load
                    .record(t0.elapsed(), got.is_ok_and(|g| g == *t), t.len() as u64);
            }
            if tr.is_on() {
                for (i, (name, _)) in weights.iter().enumerate() {
                    let block = store.entry(name).map_or(0, |e| e.block_len);
                    if let Ok(raw) =
                        tr.span("store.get_raw", i as u64, block, || store.get_raw(name))
                    {
                        tally.container_bytes += raw.len() as u64;
                    }
                }
                tally.file_bytes += file_bytes;
            }
        }

        let t0 = Instant::now();
        let streams = tr.span("pipeline.encode_batch_with", 0, act_values, || {
            pipeline.encode_batch_with(scheme, acts)
        });
        tally
            .codec
            .record(t0.elapsed(), streams.is_ok(), act_values);
        let Ok(streams) = streams else { continue };
        tally.stored_bits += streams.iter().map(|s| s.bit_len).sum::<u64>();
        tally.stored_values += act_values;
        let t0 = Instant::now();
        let back = tr.span("pipeline.decode_batch_with", 0, act_values, || {
            pipeline.decode_batch_with(&streams)
        });
        tally
            .codec
            .record(t0.elapsed(), back.is_ok_and(|b| b == acts), act_values);
    }
}
