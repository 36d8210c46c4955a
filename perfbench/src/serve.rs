//! The serve workloads' fixture: a model store (for `get`), the
//! `ss-serve` service behind a TCP server, one connected client, and the
//! request bodies with the hash each `Ok` response must have.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use shapeshifter::container;
use ss_core::{CodecConfig, CodecSession, SchemeId};
use ss_pipeline::fnv1a_64;
use ss_serve::protocol::DEFAULT_MAX_BODY;
use ss_serve::{wire, Client, Frame, Op, ServeConfig, Server, Service, Status};
use ss_store::{LocalFsProvider, ModelStore, ModelWriter};
use ss_tensor::{FixedType, Shape, Tensor};

use crate::bad;
use crate::inputs::Named;
use crate::stats::OpLog;
use crate::trace::Tracer;

pub const MODEL: &str = "model";
pub const GROUP_SIZE: usize = 16;

/// One distinct request the sequences draw from.
pub struct Item {
    pub body: Vec<u8>,
    pub values: u64,
    /// Hash of the payload an `Ok` response must carry.
    pub expect: u64,
    /// Container bytes stored (get) or shipped back (encode) for it.
    pub container_bytes: u64,
}

pub struct Fixture {
    pub op: Op,
    pub items: Vec<Item>,
    dir: PathBuf,
    service: Service,
    server: Server,
    client: Client,
}

impl Fixture {
    /// Writes `tensors` as model [`MODEL`] under `dir` and serves `get`s
    /// of its records.
    pub fn get(dir: PathBuf, tensors: &[Named]) -> Result<Fixture, String> {
        let provider = LocalFsProvider::new(&dir);
        let mut writer = ModelWriter::new(&provider, MODEL);
        for (i, (name, t)) in tensors.iter().enumerate() {
            writer
                .append_tensor(name, i as u32, t)
                .map_err(bad("append"))?;
        }
        writer.finish().map_err(bad("finish"))?;
        let mut store = ModelStore::open(&provider, MODEL).map_err(bad("open"))?;
        let mut items = Vec::with_capacity(tensors.len());
        for (name, t) in tensors {
            items.push(Item {
                body: wire::encode_get(MODEL, name),
                values: t.len() as u64,
                expect: fnv1a_64(&wire::encode_tensor(t)),
                container_bytes: store.get_raw(name).map_err(bad("get_raw"))?.len() as u64,
            });
        }
        Self::start(Op::Get, items, dir, Some(provider))
    }

    /// Serves `encode`s of `tensors` with the ShapeShifter scheme.
    pub fn encode(dir: PathBuf, tensors: &[Named]) -> Result<Fixture, String> {
        let mut items = Vec::with_capacity(tensors.len());
        for (_, t) in tensors {
            let packed = container::pack_with_scheme(t, GROUP_SIZE, SchemeId::SHAPESHIFTER)
                .map_err(bad("pack"))?;
            items.push(Item {
                body: wire::encode_tensor(t),
                values: t.len() as u64,
                expect: fnv1a_64(&packed),
                container_bytes: packed.len() as u64,
            });
        }
        Self::start(Op::Encode, items, dir, None)
    }

    fn start(
        op: Op,
        items: Vec<Item>,
        dir: PathBuf,
        provider: Option<LocalFsProvider>,
    ) -> Result<Fixture, String> {
        // One request is in flight at a time, so one worker serves it.
        let mut service =
            Service::new(ServeConfig::new().with_workers(1)).map_err(bad("service"))?;
        if let Some(p) = provider {
            service.add_model(MODEL, Arc::new(p));
        }
        service.start();
        let server = Server::start(service.handle(), "127.0.0.1:0").map_err(bad("server"))?;
        let client = Client::connect(server.addr()).map_err(bad("connect"))?;
        Ok(Fixture {
            op,
            items,
            dir,
            service,
            server,
            client,
        })
    }

    /// Sends `sequence` over TCP, one request in flight, and logs each
    /// round trip. An op counts as failed unless its status is `Ok` and
    /// its payload hashes to the expected value.
    pub fn run_tcp(&mut self, sequence: &[u32], log: &mut OpLog) {
        for &i in sequence {
            let item = &self.items[i as usize];
            let body = item.body.clone();
            let t0 = Instant::now();
            let reply = self.client.call(self.op, body);
            let took = t0.elapsed();
            let ok = matches!(&reply, Ok(r) if r.status == Status::Ok && fnv1a_64(&r.payload) == item.expect);
            log.record(took, ok, item.values);
        }
    }

    /// Sends `sequence` through the in-process handle, one at a time,
    /// each inside a `serve.handle_call` span.
    pub fn run_handle(&self, sequence: &[u32], tracer: &mut Tracer, log: &mut OpLog) {
        let handle = self.service.handle();
        for (n, &i) in sequence.iter().enumerate() {
            let item = &self.items[i as usize];
            let body = item.body.clone();
            let t0 = Instant::now();
            let reply = tracer.span("serve.handle_call", n as u64, item.values, || {
                handle.call(self.op, body)
            });
            let took = t0.elapsed();
            let ok = matches!(&reply, Ok(r) if r.status == Status::Ok && fnv1a_64(&r.payload) == item.expect);
            log.record(took, ok, item.values);
        }
    }

    /// Replays `sequence` in process through the server's stages in
    /// order — client frame encode, frame decode, wire decode, store read
    /// or pack, unpack, wire encode, frame encode, client frame decode —
    /// one span per stage, under one `request` span per request.
    pub fn replay_stages(
        &self,
        sequence: &[u32],
        tracer: &mut Tracer,
        log: &mut OpLog,
    ) -> Result<(), String> {
        let provider = LocalFsProvider::new(&self.dir);
        let mut store = match self.op {
            Op::Get => Some(ModelStore::open(&provider, MODEL).map_err(bad("open"))?),
            _ => None,
        };
        let mut session = CodecSession::new(CodecConfig::new()).map_err(bad("session"))?;
        let mut scratch = Tensor::zeros(Shape::flat(0), FixedType::I16);
        for (n, &i) in sequence.iter().enumerate() {
            let item = &self.items[i as usize];
            let id = n as u64;
            let body = item.body.clone();
            let t0 = Instant::now();
            let response = tracer.nest("request", id, item.values, |tr| -> Result<Frame, String> {
                let req = tr.span("client.frame_encode", id, body.len() as u64, || {
                    Frame::request(self.op, id, body).encode()
                });
                let (frame, _) = tr
                    .span("serve.frame_decode", id, req.len() as u64, || {
                        Frame::decode(&req, DEFAULT_MAX_BODY)
                    })
                    .map_err(bad("frame decode"))?;
                let body = &frame.body;
                let payload = match &mut store {
                    Some(store) => {
                        let (_, record) = tr
                            .span("serve.wire_decode", id, body.len() as u64, || {
                                wire::decode_get(body)
                            })
                            .map_err(bad("wire decode"))?;
                        let raw = tr
                            .span("store.get_raw", id, item.container_bytes, || {
                                store.get_raw(&record)
                            })
                            .map_err(bad("get_raw"))?;
                        tr.span("container.unpack_with", id, item.values, || {
                            container::unpack_with(&raw, &mut session, &mut scratch)
                        })
                        .map_err(bad("unpack"))?;
                        tr.span("serve.wire_encode", id, 4 * item.values, || {
                            wire::encode_tensor(&scratch)
                        })
                    }
                    None => {
                        let t = tr
                            .span("serve.wire_decode", id, body.len() as u64, || {
                                wire::decode_tensor(body)
                            })
                            .map_err(bad("wire decode"))?;
                        tr.span("container.pack_with_scheme", id, item.values, || {
                            container::pack_with_scheme(&t, GROUP_SIZE, SchemeId::SHAPESHIFTER)
                        })
                        .map_err(bad("pack"))?
                    }
                };
                let resp = tr.span("serve.frame_encode", id, payload.len() as u64 + 1, || {
                    Frame::response(self.op, id, Status::Ok, &payload).encode()
                });
                let (frame, _) = tr
                    .span("client.frame_decode", id, resp.len() as u64, || {
                        Frame::decode(&resp, DEFAULT_MAX_BODY)
                    })
                    .map_err(bad("frame decode"))?;
                Ok(frame)
            });
            let took = t0.elapsed();
            let ok = response.is_ok_and(|f| fnv1a_64(&f.body[1..]) == item.expect);
            log.record(took, ok, item.values);
        }
        Ok(())
    }

    /// Stops the client, the server and the service, joining their
    /// threads, and deletes the fixture's directory.
    pub fn shutdown(self) {
        self.client.abandon();
        self.server.stop();
        self.service.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensors() -> Vec<Named> {
        (0..3)
            .map(|k| {
                let vals = (0..500).map(|v| ((v * 7 + k) % 23) - 11).collect();
                let t = Tensor::from_vec(Shape::flat(500), FixedType::I16, vals).expect("tensor");
                (format!("layer{k}.weight"), t)
            })
            .collect()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ss-perfbench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn forced_failures_are_counted_and_not_sampled() {
        let dir = scratch_dir("fail");
        let mut f = Fixture::get(dir.clone(), &tensors()).expect("fixture");
        // A wrong expectation (a mismatch) and a record the store lacks
        // (a NotFound status) must both fail.
        f.items[1].expect ^= 1;
        f.items.push(Item {
            body: wire::encode_get(MODEL, "absent"),
            values: 500,
            expect: 0,
            container_bytes: 0,
        });
        let mut log = OpLog::default();
        f.run_tcp(&[0, 1, 2, 3, 0], &mut log);
        assert_eq!(log.attempted(), 5);
        assert_eq!(log.failed(), 2);
        assert_eq!(log.samples().len(), 3);
        assert_eq!(log.values(), 1500);

        let mut tr = Tracer::new(true);
        let mut replay = OpLog::default();
        f.replay_stages(&[0, 1, 2], &mut tr, &mut replay)
            .expect("replay");
        assert_eq!((replay.attempted(), replay.failed()), (3, 1));
        let mut handle = OpLog::default();
        f.run_handle(&[0, 3], &mut tr, &mut handle);
        assert_eq!((handle.attempted(), handle.failed()), (2, 1));
        f.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn encode_responses_match_set_up_containers() {
        let dir = scratch_dir("encode");
        let mut f = Fixture::encode(dir, &tensors()).expect("fixture");
        let mut log = OpLog::default();
        f.run_tcp(&[2, 1, 0, 1], &mut log);
        assert_eq!((log.attempted(), log.failed()), (4, 0));
        let mut tr = Tracer::new(true);
        let mut replay = OpLog::default();
        f.replay_stages(&[0, 1], &mut tr, &mut replay)
            .expect("replay");
        assert_eq!(replay.failed(), 0);
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        assert!(names.contains(&"container.pack_with_scheme"));
        assert!(!names.contains(&"store.get_raw"));
        f.shutdown();
    }
}
