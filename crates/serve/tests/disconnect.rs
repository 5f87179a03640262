//! Fault injection: a client that disconnects mid-batch must not leak
//! in-flight units or pool capacity — the `inflight` gauge returns to
//! zero and the daemon keeps serving other clients.

mod serve_test_util;

use optimist_serve::{Json, Server};
use serve_test_util::TestDaemon;
use std::io::Write;
use std::time::{Duration, Instant};

/// A function with enough simultaneously-live values to need real
/// allocator work (and a spill pass), so the batch is still in flight
/// when the client walks away.
fn heavy_fn(i: usize) -> String {
    let n = 24;
    let mut ir = format!("func heavy{i}() -> int {{\nb0:\n");
    for v in 1..=n {
        ir.push_str(&format!("    v{v} = imm {}\n", v + i));
    }
    ir.push_str(&format!("    v{} = add.i v1, v2\n", n + 1));
    for v in 3..=n {
        ir.push_str(&format!(
            "    v{} = add.i v{}, v{v}\n",
            n + v - 1,
            n + v - 2
        ));
    }
    ir.push_str(&format!("    ret v{}\n}}\n", 2 * n - 1));
    ir
}

fn batch_line(n_items: usize) -> String {
    let mut arr = Vec::with_capacity(n_items);
    for i in 0..n_items {
        arr.push(Json::obj([
            ("id", Json::from(format!("h{i}").as_str())),
            ("ir", Json::from(heavy_fn(i).as_str())),
        ]));
    }
    let mut req = Json::obj([("req", Json::from("batch"))]);
    req.push("items", Json::Arr(arr));
    req.to_string()
}

#[test]
fn mid_batch_disconnect_releases_every_inflight_slot() {
    let server = Server::new(64, 4).with_max_inflight(4);
    let daemon = TestDaemon::spawn(server);

    // Raw socket, not the client: send a 16-item batch of cold, heavy
    // functions, read a single response line, then drop the connection
    // while most of the batch is still computing or queued.
    {
        let mut sock = std::net::TcpStream::connect(daemon.addr()).expect("connect");
        let mut line = batch_line(16);
        line.push('\n');
        sock.write_all(line.as_bytes()).expect("send batch");
        sock.flush().unwrap();
        let mut first = [0u8; 1];
        use std::io::Read;
        sock.read_exact(&mut first).expect("first response byte");
    } // drop: RST/FIN mid-stream

    // A write to the dead socket fails, the batch's workers stop taking
    // items, and every in-flight unit comes back.
    let metrics = daemon.server().metrics();
    let deadline = Instant::now() + Duration::from_secs(30);
    while metrics.inflight.get() != 0
        || metrics.stream_units.get() != metrics.stream_responses.get()
    {
        assert!(
            Instant::now() < deadline,
            "leaked in-flight units: gauge={} units={} responses={}",
            metrics.inflight.get(),
            metrics.stream_units.get(),
            metrics.stream_responses.get()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(metrics.stream_units.get() > 0, "batch was admitted at all");

    // The daemon is unharmed: a fresh client gets served.
    let mut client = daemon.client();
    let resp = client
        .alloc(&heavy_fn(999), Json::Null)
        .expect("alloc after disconnect");
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    drop(client);

    let stats = daemon.shutdown_with_stats();
    let stream = stats.get("stream").expect("stream stats");
    assert_eq!(stream.get("inflight").and_then(Json::as_u64), Some(0));
}
