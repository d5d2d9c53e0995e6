//! Ordering and integrity of the corked vectored write path, observed
//! end to end over a real socket.
//!
//! Two writers share one connection: the pump (engine responses, corked
//! into vectored writes) and the reader (direct typed rejections).
//! Whatever the interleaving, two properties must hold:
//!
//! * **No tearing**: every line the client reads is a complete,
//!   parseable frame — a vectored write that resumed after a short
//!   write must never interleave with a competing whole-frame write.
//! * **Per-connection response order**: with a single engine shard and
//!   a single worker, engine responses are produced in submission
//!   order, and the pump's cork must preserve that order on the wire.
//!
//! The request mix (valid schedule frames vs malformed rejects) is
//! seeded, so failures reproduce.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use amp_net::proto;
use amp_net::{Server, ServerConfig};
use amp_service::EngineConfig;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Ids below this are valid schedule requests; at/above are malformed
/// frames answered by the reader directly.
const REJECT_BASE: u64 = 1 << 20;

fn single_lane_config() -> ServerConfig {
    ServerConfig {
        // One shard, one worker: the engine is a FIFO, so response
        // order == submission order and any reordering is the wire's.
        shards: 1,
        per_shard: EngineConfig {
            workers: 1,
            queue_depth: 512,
            cache_capacity: 256,
            cache_shards: 1,
            ..EngineConfig::default()
        },
        max_connections: 4,
        window: 128,
        batch_max: 16,
        ..ServerConfig::default()
    }
}

fn interleaved_run(seed: u64) {
    let server = Server::start(single_lane_config()).expect("server starts");
    let addr = server.local_addr();
    let mut rng = StdRng::seed_from_u64(seed);

    const TOTAL: usize = 600;
    let mut frames = String::new();
    let mut valid_ids: Vec<u64> = Vec::new();
    let mut reject_ids: Vec<u64> = Vec::new();
    for i in 0..TOTAL {
        if rng.gen_bool(0.25) {
            // Malformed: parses as JSON, fails validation — the reader
            // answers this directly, racing the pump for the socket.
            let id = REJECT_BASE + i as u64;
            frames.push_str(&format!("{{\"id\":{id},\"policy\":\"HeRAD\"}}\n"));
            reject_ids.push(id);
        } else {
            let id = i as u64;
            let tasks = (0..rng.gen_range(2..=5))
                .map(|_| {
                    format!(
                        "[{},{},{}]",
                        rng.gen_range(1..=40u64),
                        rng.gen_range(1..=80u64),
                        u8::from(rng.gen_bool(0.5))
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            frames.push_str(&format!(
                "{{\"id\":{id},\"policy\":\"FERTAC\",\"big\":2,\"little\":2,\
                 \"tasks\":[{tasks}]}}\n"
            ));
            valid_ids.push(id);
        }
    }

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut write_half = stream.try_clone().expect("clone");
    // Pipelining everything at once maximizes batching, corking and the
    // reader/pump write race.
    let sender = std::thread::spawn(move || {
        write_half
            .write_all(frames.as_bytes())
            .expect("frames sent");
    });

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut answered: BTreeSet<u64> = BTreeSet::new();
    let mut valid_order: Vec<u64> = Vec::new();
    for _ in 0..TOTAL {
        line.clear();
        let n = reader.read_line(&mut line).expect("line readable");
        assert!(n > 0, "server closed early: {answered:?}");
        // No tearing: every line is a complete canonical frame.
        let response = proto::parse_response(line.trim_end())
            .unwrap_or_else(|e| panic!("torn/corrupt frame {line:?}: {e:?}"));
        let id = response.id.expect("every answer here carries an id");
        assert!(answered.insert(id), "id {id} answered twice");
        match response.result {
            Ok(_) => {
                assert!(id < REJECT_BASE, "malformed frame got an ok answer");
                valid_order.push(id);
            }
            Err((code, _)) => {
                assert!(id >= REJECT_BASE, "valid frame {id} rejected: {code}");
                assert_eq!(code, "BAD_REQUEST");
            }
        }
    }
    sender.join().expect("sender finishes");

    // Completeness: exactly the sent ids, each once.
    let expected: BTreeSet<u64> = valid_ids.iter().chain(&reject_ids).copied().collect();
    assert_eq!(answered, expected, "answered set mismatch");
    // Per-connection response order: the engine produced responses in
    // submission order (single lane); the corked pump must not reorder.
    assert_eq!(
        valid_order, valid_ids,
        "engine responses were reordered on the wire (seed {seed})"
    );
    server.shutdown();
}

#[test]
fn corked_pump_preserves_engine_order_amid_direct_rejections() {
    for seed in [0xC0FFEE, 1, 42] {
        interleaved_run(seed);
    }
}
