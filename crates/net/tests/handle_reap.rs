//! Regression test for the JoinHandle leak: the first wire pushed every
//! connection thread's handle into a `Mutex<Vec<_>>` that was only
//! drained at shutdown, so a long-running server retained one handle
//! per connection *ever accepted*. With the sharded registry, finished
//! readers bury their own handles and the acceptor reaps them, so the
//! retained count tracks churn, not lifetime.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use amp_net::{Server, ServerConfig};
use amp_service::EngineConfig;

fn light_config() -> ServerConfig {
    ServerConfig {
        shards: 1,
        per_shard: EngineConfig {
            workers: 1,
            queue_depth: 64,
            cache_capacity: 64,
            cache_shards: 1,
            ..EngineConfig::default()
        },
        max_connections: 8,
        ..ServerConfig::default()
    }
}

#[test]
fn a_thousand_connection_churns_retain_a_bounded_handle_count() {
    let server = Server::start(light_config()).expect("server starts");
    let addr = server.local_addr();
    const CHURNS: usize = 1000;
    // Generous bound: retained handles may lag by the few connections
    // whose readers haven't been rescheduled yet, but a leak of one
    // handle per connection (the old behavior) blows far past this.
    const BOUND: usize = 64;
    let mut worst = 0usize;
    for i in 0..CHURNS {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // A full round trip proves the reader is up before we close.
        stream
            .write_all(b"{\"op\":\"ping\"}\n")
            .expect("ping written");
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).expect("pong");
        assert!(line.contains("pong"), "unexpected reply: {line}");
        drop(stream);
        if i % 16 == 0 {
            worst = worst.max(server.retained_reader_handles());
        }
    }
    assert!(
        worst <= BOUND,
        "retained handles peaked at {worst} during {CHURNS} churns (bound {BOUND}); \
         connection handles are leaking again"
    );
    // Quiescence: once the stragglers finish and one more accept cycle
    // reaps, nothing should stay retained but the last few burials.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut retained = server.retained_reader_handles();
    while retained > 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        // A fresh connection triggers an acceptor-side reap.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"{\"op\":\"ping\"}\n").expect("ping");
        let mut line = String::new();
        let _ = BufReader::new(&stream).read_line(&mut line);
        drop(stream);
        retained = server.retained_reader_handles();
    }
    assert!(
        retained <= 4,
        "{retained} handles still retained after churn settled"
    );
    let snapshot = server.net_snapshot();
    assert!(snapshot.connections_opened >= CHURNS as u64);
    server.shutdown();
}
