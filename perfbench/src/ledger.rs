//! Layer probes and the per-layer ledger.
//!
//! The probes call each layer's public functions over a workload's own
//! tensors, one span per call, so every layer is timed on the data the
//! workload carries. [`Ledger::metrics`] folds those spans, the stage
//! replay's spans and the offline pass's tallies into the per-layer
//! metrics.

use std::collections::BTreeMap;

use shapeshifter::container;
use ss_bitio::{BitReader, BitWriter};
use ss_core::{
    kernels, CodecConfig, CodecSession, EncodedTensor, IndexPolicy, SchemeRegistry, SchemeStream,
};
use ss_pipeline::Pipeline;
use ss_serve::wire;
use ss_sim::DramConfig;
use ss_tensor::{FixedType, Shape, Tensor};

use crate::bad;
use crate::batch::{Tally, SCHEMES};
use crate::inputs::Named;
use crate::stats::{OpLog, Report};
use crate::trace::{Totals, Tracer};

/// The bit-I/O probe packs the payload fields of at most this many values.
const BITIO_VALUES: usize = 4 << 20;

/// Figures the probes measure beside their spans.
#[derive(Debug, Default)]
pub struct Probe {
    pub scheme_bits: [u64; 4],
    pub scheme_values: u64,
    pub encode_occupancy: f64,
    pub queue_high_water: usize,
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{what}: round trip is not the identity"))
    }
}

/// Runs every layer probe over `tensors`, and the pipeline probes over
/// `acts`. Every round trip is checked.
pub fn probe(
    tensors: &[Named],
    acts: &[Tensor],
    pipeline: &Pipeline,
    tr: &mut Tracer,
) -> Result<Probe, String> {
    let mut session = CodecSession::new(CodecConfig::new()).map_err(bad("session"))?;
    let mut encoded = EncodedTensor::default();
    let mut back = Tensor::zeros(Shape::flat(0), FixedType::I16);
    let mut out = Probe::default();
    let mut bitio_budget = BITIO_VALUES;
    for (i, (_, t)) in tensors.iter().enumerate() {
        let (id, n) = (i as u64, t.len() as u64);
        tr.span("session.encode_into", id, n, || {
            session.encode_into(t, &mut encoded)
        })
        .map_err(bad("encode"))?;
        tr.span("session.decode_into", id, n, || {
            session.decode_into(&encoded, &mut back)
        })
        .map_err(bad("decode"))?;
        check(back == *t, "session")?;
        let report = tr.span("codec.measure", id, n, || session.codec().measure(t));
        check(
            report.metadata_bits + report.payload_bits == encoded.bit_len(),
            "measure",
        )?;

        let mut gathered = [0u64; kernels::MAX_GROUP];
        let widths = tr.span("kernels.scan_gather", id, n, || {
            let mut or = 0u64;
            for g in t.values().chunks(16) {
                let (scan, nz) = kernels::scan_gather(g, t.signedness(), &mut gathered);
                or = or.wrapping_add(u64::from(scan.width()) + nz as u64);
            }
            or
        });
        std::hint::black_box(widths);

        if bitio_budget >= t.len() {
            bitio_budget -= t.len();
            bitio(t, id, tr)?;
        }

        let packed = tr
            .span("container.pack_with_scheme", id, n, || {
                container::pack_with_scheme(t, 16, ss_core::SchemeId::SHAPESHIFTER)
            })
            .map_err(bad("pack"))?;
        tr.span("container.unpack_with", id, n, || {
            container::unpack_with(&packed, &mut session, &mut back)
        })
        .map_err(bad("unpack"))?;
        check(back == *t, "container")?;

        let body = tr.span("wire.encode_tensor", id, 4 * n, || wire::encode_tensor(t));
        let decoded = tr
            .span("wire.decode_tensor", id, body.len() as u64, || {
                wire::decode_tensor(&body)
            })
            .map_err(bad("wire"))?;
        check(decoded == *t, "wire")?;

        for (k, (scheme_id, _)) in SCHEMES.iter().enumerate() {
            let scheme = SchemeRegistry::global()
                .get(*scheme_id)
                .map_err(bad("scheme"))?;
            let mut stream = SchemeStream::default();
            tr.span(SCHEME_SPANS[k].0, id, n, || {
                session.encode_with_scheme(scheme, t, IndexPolicy::Auto, &mut stream)
            })
            .map_err(bad("scheme encode"))?;
            tr.span(SCHEME_SPANS[k].1, id, n, || {
                session.decode_with_scheme(scheme, &stream, &mut back)
            })
            .map_err(bad("scheme decode"))?;
            check(back == *t, "scheme")?;
            out.scheme_bits[k] += stream.bit_len;
        }
        out.scheme_values += n;
    }

    // The pipeline's single-session baseline, over the pipeline's inputs.
    for (scheme_id, _) in SCHEMES {
        let scheme = SchemeRegistry::global()
            .get(scheme_id)
            .map_err(bad("scheme"))?;
        let mut stream = SchemeStream::default();
        for (i, t) in acts.iter().enumerate() {
            tr.span(
                "session.encode_with_scheme",
                i as u64,
                t.len() as u64,
                || session.encode_with_scheme(scheme, t, IndexPolicy::Auto, &mut stream),
            )
            .map_err(bad("scheme encode"))?;
        }
    }
    let report = pipeline.process(acts).map_err(bad("pipeline"))?;
    out.encode_occupancy = report.encode_occupancy();
    out.queue_high_water = report.queue_high_water;
    Ok(out)
}

/// Span names of each scheme's encode and decode, in [`SCHEMES`] order.
const SCHEME_SPANS: [(&str, &str); 4] = [
    ("scheme.shapeshifter.encode", "scheme.shapeshifter.decode"),
    ("scheme.delta.encode", "scheme.delta.decode"),
    ("scheme.dpred.encode", "scheme.dpred.decode"),
    ("scheme.adabits.encode", "scheme.adabits.decode"),
];

/// Packs and reads back the non-zero payload fields of `t`, one field
/// width per group, as the codec's payload stage does.
fn bitio(t: &Tensor, id: u64, tr: &mut Tracer) -> Result<(), String> {
    let mut fields = Vec::with_capacity(t.len());
    let mut runs: Vec<(u32, usize)> = Vec::with_capacity(t.len() / 16 + 1);
    let mut gathered = [0u64; kernels::MAX_GROUP];
    for g in t.values().chunks(16) {
        let (scan, nz) = kernels::scan_gather(g, t.signedness(), &mut gathered);
        if scan.width() > 0 && nz > 0 {
            runs.push((u32::from(scan.width()), nz));
            fields.extend_from_slice(&gathered[..nz]);
        }
    }
    let count = fields.len() as u64;
    let mut writer = BitWriter::new();
    tr.span("bitio.pack_fields", id, count, || -> Result<(), String> {
        let mut at = 0;
        for &(w, n) in &runs {
            writer
                .pack_fields(&fields[at..at + n], w)
                .map_err(bad("pack_fields"))?;
            at += n;
        }
        Ok(())
    })?;
    let mut read = vec![0u64; fields.len()];
    let mut reader = BitReader::new(writer.as_bytes());
    tr.span("bitio.read_fields", id, count, || -> Result<(), String> {
        let mut at = 0;
        for &(w, n) in &runs {
            reader
                .read_fields(w, &mut read[at..at + n])
                .map_err(bad("read_fields"))?;
            at += n;
        }
        Ok(())
    })?;
    check(read == fields, "bitio")
}

/// Serve-side figures for the ledger, from the TCP pass and the
/// in-process handle replay.
#[derive(Debug, Default)]
pub struct ServeFigures {
    pub tcp: OpLog,
    pub handle: OpLog,
    pub replay: OpLog,
}

/// Everything the per-layer metrics are computed from.
pub struct Ledger<'a> {
    pub totals: BTreeMap<&'static str, Totals>,
    pub tracer: &'a Tracer,
    pub probe: &'a Probe,
    pub tally: &'a Tally,
    pub serve: &'a ServeFigures,
    pub trace_overhead_frac: f64,
}

/// Logs an error and returns true when `stage.residual_us` in `r` is
/// negative or missing. On the serve workloads a round trip does every
/// stage plus the socket and thread hand-offs, so a negative residual
/// means the stage replay no longer accounts for the round trip. It does
/// not fail the run: the residual is the difference of two timed passes,
/// and on a shared host its noise is as large as its smallest values.
pub fn negative_residual(r: &Report) -> bool {
    let residual = r
        .metrics
        .iter()
        .find(|m| m.0 == "stage.residual_us")
        .map(|m| m.1);
    let negative = !residual.is_some_and(|us| us >= 0.0);
    if negative {
        eprintln!(
            "error: stage.residual_us is {residual:?}: the TCP round trip is below its stage sum"
        );
    }
    negative
}

/// Stage spans of the serve replay and the metric each one feeds.
const STAGES: [(&str, &str); 9] = [
    ("client.frame_encode", "stage.client_frame_encode_us"),
    ("serve.frame_decode", "stage.frame_decode_us"),
    ("serve.wire_decode", "stage.wire_decode_us"),
    ("store.get_raw", "stage.store_get_raw_us"),
    ("container.unpack_with", "stage.container_unpack_us"),
    ("container.pack_with_scheme", "stage.container_pack_us"),
    ("serve.wire_encode", "stage.wire_encode_us"),
    ("serve.frame_encode", "stage.frame_encode_us"),
    ("client.frame_decode", "stage.client_frame_decode_us"),
];

impl Ledger<'_> {
    fn get(&self, names: &[&str]) -> Totals {
        let mut t = Totals::default();
        for n in names {
            if let Some(x) = self.totals.get(n) {
                t.count += x.count;
                t.total_ns += x.total_ns;
                t.self_ns += x.self_ns;
                t.work += x.work;
            }
        }
        t
    }

    fn rate(&self, names: &[&str]) -> f64 {
        self.get(names).m_per_s()
    }

    /// Self time per request of each stage span under `request` spans,
    /// in µs; the map is empty when no request was replayed.
    fn stage_us(&self) -> (u64, BTreeMap<&'static str, f64>) {
        let spans = self.tracer.spans();
        let requests = spans.iter().filter(|s| s.name == "request").count() as u64;
        let mut out = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                if spans[p].name == "request" {
                    *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
                }
            }
        }
        for v in out.values_mut() {
            *v /= requests.max(1) as f64;
        }
        (requests, out)
    }

    pub fn metrics(&self, r: &mut Report) {
        let mb = |t: Totals| t.m_per_s();
        // ss-serve
        r.add(
            "serve.handle_p50_ms",
            self.serve.handle.percentile_ms(0.5).unwrap_or(f64::NAN),
            "ms",
        );
        let (_, stage) = self.stage_us();
        let stage_sum: f64 = stage.values().sum();
        let rtt_us =
            self.serve.tcp.busy().as_secs_f64() * 1e6 / self.serve.tcp.attempted().max(1) as f64;
        r.add(
            "serve.tcp_residual_frac",
            (rtt_us - stage_sum) / rtt_us,
            "ratio",
        );
        r.add(
            "serve.frame_encode_mb_per_s",
            mb(self.get(&["client.frame_encode", "serve.frame_encode"])),
            "MB/s",
        );
        r.add(
            "serve.frame_decode_mb_per_s",
            mb(self.get(&["serve.frame_decode", "client.frame_decode"])),
            "MB/s",
        );
        r.add(
            "serve.wire_encode_tensor_mb_per_s",
            self.rate(&["wire.encode_tensor"]),
            "MB/s",
        );
        r.add(
            "serve.wire_decode_tensor_mb_per_s",
            self.rate(&["wire.decode_tensor"]),
            "MB/s",
        );
        let serve_logs = [&self.serve.tcp, &self.serve.handle, &self.serve.replay];
        r.add(
            "serve.ops_attempted",
            serve_logs.iter().map(|l| l.attempted()).sum::<u64>() as f64,
            "count",
        );
        r.add(
            "serve.ops_failed",
            serve_logs.iter().map(|l| l.failed()).sum::<u64>() as f64,
            "count",
        );
        for (span, metric) in STAGES {
            r.add(metric, stage.get(span).copied().unwrap_or(0.0), "us");
        }
        r.add("stage.rtt_us", rtt_us, "us");
        r.add("stage.residual_us", rtt_us - stage_sum, "us");

        // ss-store
        let tally = self.tally;
        r.add("store.open_ms", self.get(&["store.open"]).mean_ms(), "ms");
        r.add(
            "store.get_raw_mb_per_s",
            self.rate(&["store.get_raw"]),
            "MB/s",
        );
        r.add(
            "store.get_mvals_per_s",
            self.rate(&["store.get"]),
            "Mvalues/s",
        );
        let gets = self.get(&["store.get"]).count.max(1);
        r.add(
            "store.block_bytes_per_get",
            tally.block_bytes as f64 / gets as f64,
            "bytes",
        );
        r.add(
            "store.append_mvals_per_s",
            self.rate(&["store.append_tensor"]),
            "Mvalues/s",
        );
        r.add(
            "store.finish_ms",
            self.get(&["store.finish"]).mean_ms(),
            "ms",
        );
        r.add(
            "store.verify_mb_per_s",
            self.rate(&["store.verify"]),
            "MB/s",
        );
        r.add(
            "store.file_bytes_per_container_byte",
            tally.file_bytes as f64 / tally.container_bytes.max(1) as f64,
            "ratio",
        );

        // facade container
        let pack = self.rate(&["container.pack_with_scheme"]);
        let session_encode = self.rate(&["session.encode_into"]);
        r.add("container.pack_mvals_per_s", pack, "Mvalues/s");
        r.add(
            "container.unpack_mvals_per_s",
            self.rate(&["container.unpack_with"]),
            "Mvalues/s",
        );
        r.add(
            "container.pack_over_session_encode",
            session_encode / pack,
            "ratio",
        );

        // ss-core session and schemes
        let session_decode = self.rate(&["session.decode_into"]);
        r.add("session.encode_mvals_per_s", session_encode, "Mvalues/s");
        r.add("session.decode_mvals_per_s", session_decode, "Mvalues/s");
        // Decoded output bits per second (16-bit values) against the
        // DRAM's peak bits per second.
        let ddr_bits = DramConfig::DDR4_3200.bandwidth_bytes_per_sec() as f64 * 8.0;
        r.add(
            "session.decode_share_of_ddr4_3200",
            session_decode * 1e6 * 16.0 / ddr_bits,
            "ratio",
        );
        for (k, (_, name)) in SCHEMES.iter().enumerate() {
            let (enc, dec) = SCHEME_SPANS[k];
            r.add(
                format!("scheme.{name}.encode_mvals_per_s"),
                self.rate(&[enc]),
                "Mvalues/s",
            );
            r.add(
                format!("scheme.{name}.decode_mvals_per_s"),
                self.rate(&[dec]),
                "Mvalues/s",
            );
            r.add(
                format!("scheme.{name}.bits_per_value"),
                self.probe.scheme_bits[k] as f64 / self.probe.scheme_values.max(1) as f64,
                "bits",
            );
        }

        // ss-core codec and kernels
        let measure = self.rate(&["codec.measure"]);
        r.add("codec.measure_mvals_per_s", measure, "Mvalues/s");
        r.add(
            "codec.measure_over_encode",
            session_encode / measure,
            "ratio",
        );
        r.add(
            "kernels.scan_gather_mvals_per_s",
            self.rate(&["kernels.scan_gather"]),
            "Mvalues/s",
        );

        // ss-bitio
        r.add(
            "bitio.pack_fields_mfields_per_s",
            self.rate(&["bitio.pack_fields"]),
            "Mfields/s",
        );
        r.add(
            "bitio.read_fields_mfields_per_s",
            self.rate(&["bitio.read_fields"]),
            "Mfields/s",
        );

        // ss-pipeline
        let pipe_encode = self.rate(&["pipeline.encode_batch_with"]);
        r.add(
            "pipeline.encode_batch_mvals_per_s",
            pipe_encode,
            "Mvalues/s",
        );
        r.add(
            "pipeline.decode_batch_mvals_per_s",
            self.rate(&["pipeline.decode_batch_with"]),
            "Mvalues/s",
        );
        r.add(
            "pipeline.speedup_vs_session",
            pipe_encode / self.rate(&["session.encode_with_scheme"]),
            "ratio",
        );
        r.add(
            "pipeline.encode_occupancy",
            self.probe.encode_occupancy,
            "ratio",
        );
        r.add(
            "pipeline.queue_high_water",
            self.probe.queue_high_water as f64,
            "count",
        );

        // The offline pass, by phase.
        r.add(
            "batch.pack_mvals_per_s",
            tally.pack.mvals_per_s(),
            "Mvalues/s",
        );
        r.add(
            "batch.load_mvals_per_s",
            tally.load.mvals_per_s(),
            "Mvalues/s",
        );
        r.add(
            "batch.codec_mvals_per_s",
            tally.codec.mvals_per_s(),
            "Mvalues/s",
        );

        // The benchmark itself.
        r.add(
            "bench.trace_overhead_frac",
            self.trace_overhead_frac,
            "ratio",
        );
        // 52 bits, so the digest survives as an exact JSON number.
        r.add(
            "bench.inputs_digest",
            (r.inputs_digest >> 12) as f64,
            "hash",
        );
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    /// Whether the ledger flags one replayed request whose stage took
    /// 3 ms, against a TCP round trip of `rtt`.
    fn flagged(rtt: Duration) -> bool {
        let mut tr = Tracer::new(true);
        tr.nest("request", 0, 1, |tr| {
            tr.span("serve.frame_encode", 0, 1, || {
                std::thread::sleep(Duration::from_millis(3))
            })
        });
        let mut serve = ServeFigures::default();
        serve.tcp.record(rtt, true, 1);
        let mut r = Report::default();
        Ledger {
            totals: tr.totals(),
            tracer: &tr,
            probe: &Probe::default(),
            tally: &Tally::default(),
            serve: &serve,
            trace_overhead_frac: 0.0,
        }
        .metrics(&mut r);
        negative_residual(&r)
    }

    #[test]
    fn negative_residual_is_flagged() {
        assert!(flagged(Duration::from_millis(1)));
        assert!(!flagged(Duration::from_secs(1)));
    }
}
