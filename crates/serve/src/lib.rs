//! `disassoc-serve`: the anonymization service daemon.
//!
//! A long-running TCP service over the workspace's pipeline and store
//! layers, built — like the rest of the workspace — with nothing beyond
//! std and the vendored shims: the HTTP/1.1 layer is hand-rolled over
//! [`std::net::TcpListener`] ([`http`]), the worker pool is a
//! `Mutex<VecDeque>` + `Condvar` ([`jobs`]), and SIGTERM handling is one
//! `extern "C"` block (`signal(2)`, `write(2)`) away from std ([`signal`]).
//!
//! # Surface
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /datasets/{name}/records` | ingest numeric-transaction lines into the dataset's WAL+memtable store (acknowledged = survives a process crash; the WAL is not fsynced per request, so not power loss) |
//! | `POST /datasets/{name}/anonymize?k=&m=` | full re-anonymization through [`disassociation::Pipeline`], atomically republishing the chunk dir and flat publication |
//! | `POST /datasets/{name}/append?k=&m=` | incremental append through [`disassoc_store::publish::AppendJob`] (the CLI `append` protocol); only dirty chunks are republished |
//! | `GET /datasets/{name}/chunks[?term=]` | the publication — flat-file bytes verbatim, or the clusters mentioning the term, copied from the chunk dir's in-memory read index (about the compact publication's size per served dataset, held while the daemon runs) |
//! | `GET /datasets` · `GET /datasets/{name}` | admin: dataset list / single summary |
//! | `GET /metrics` · `GET /healthz` | admin: [`disassoc_obs`] counter snapshot as JSON / liveness |
//!
//! # Guarantees
//!
//! - **Durability**: a 200 on ingest means the records are in the store's
//!   write-ahead log with OS buffers flushed; kill -9 afterwards loses
//!   nothing ([`crate::dataset::DatasetHandle::with_store`]).
//! - **Atomic publication**: anonymize/append republish via the store
//!   layer's two-phase [`disassoc_store::ChunkDir`] and the durable
//!   `.partial` → fsync → rename commit of
//!   [`disassoc_store::publish::publish_flat_file`]; readers never observe
//!   a half-written publication.
//! - **Byte-identical to batch**: the served publication for a dataset is
//!   byte-for-byte what `disassoc anonymize --store` would write for the
//!   same records, batch size, and parameters.
//! - **Backpressure, not collapse**: per-dataset job queues are bounded;
//!   over the bound the service answers `503` + `Retry-After` immediately.
//! - **Graceful drain**: SIGTERM/SIGINT stops the accept loop, runs every
//!   acknowledged job, flushes every store, and exits 0; the data directory
//!   reopens cleanly.
//!
//! One dataset = one locked [`disassoc_store::Store`] directory; the lock
//! (surfaced as HTTP 409) keeps a second daemon or a concurrent CLI
//! `ingest` from running destructive recovery under the service's feet.

#![deny(unsafe_code)] // one documented exception: `signal`'s extern "C" block
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod client;
pub mod dataset;
mod error;
pub mod http;
pub mod jobs;
pub mod retry;
mod server;
pub mod signal;

pub use error::ServeError;
pub use server::{ServeConfig, Server, ShutdownHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("disassoc_serve_lib_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Spawns a server on an ephemeral port; returns (addr, shutdown, join).
    fn spawn(
        tag: &str,
    ) -> (
        std::net::SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let server = Server::bind("127.0.0.1:0", tmpdir(tag), ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        (addr, shutdown, join)
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let (addr, shutdown, join) = spawn("health");
        let ok = client::get(addr, "/healthz").unwrap();
        assert_eq!(ok.status, 200);
        assert!(ok.text().contains("\"ok\""), "{}", ok.text());

        let missing = client::get(addr, "/nope").unwrap();
        assert_eq!(missing.status, 404);

        let wrong_method = client::post(addr, "/healthz", b"").unwrap();
        assert_eq!(wrong_method.status, 405);

        shutdown.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn ingest_anonymize_and_read_round_trip() {
        let (addr, shutdown, join) = spawn("round_trip");
        let body = b"1 2 3\n1 2 4\n2 3 4\n1 3 4\n1 2 3 4\n";
        let ingest = client::post(addr, "/datasets/rt/records", body).unwrap();
        assert_eq!(ingest.status, 200, "{}", ingest.text());
        assert!(ingest.text().contains("\"appended\":5"));

        let anon = client::post(addr, "/datasets/rt/anonymize?k=2&m=2", b"").unwrap();
        assert_eq!(anon.status, 200, "{}", anon.text());

        let chunks = client::get(addr, "/datasets/rt/chunks").unwrap();
        assert_eq!(chunks.status, 200);
        let text = chunks.text();
        assert!(text.contains("\"clusters\""), "{text}");

        // Term-filtered read returns a subset (or equal) publication.
        let filtered = client::get(addr, "/datasets/rt/chunks?term=1").unwrap();
        assert_eq!(filtered.status, 200);
        assert!(filtered.body.len() <= chunks.body.len());

        let metrics = client::get(addr, "/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        assert!(
            metrics.text().contains("serve.requests"),
            "{}",
            metrics.text()
        );

        shutdown.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn reads_of_unknown_datasets_are_404_and_bad_params_400() {
        let (addr, shutdown, join) = spawn("errors");
        assert_eq!(
            client::get(addr, "/datasets/none/chunks").unwrap().status,
            404
        );
        assert_eq!(
            client::post(addr, "/datasets/none/append?k=2&m=2", b"1 2\n")
                .unwrap()
                .status,
            404
        );
        // Missing k/m.
        assert_eq!(
            client::post(addr, "/datasets/x/anonymize", b"")
                .unwrap()
                .status,
            400
        );
        // k too small for any privacy.
        assert_eq!(
            client::post(addr, "/datasets/x/anonymize?k=1&m=2", b"")
                .unwrap()
                .status,
            400
        );
        // Unparseable records.
        assert_eq!(
            client::post(addr, "/datasets/x/records", b"1 2\nnot numbers\n")
                .unwrap()
                .status,
            400
        );
        // Bad dataset name (traversal attempt collapses to a 400 upstream
        // of any filesystem access).
        assert_eq!(
            client::post(addr, "/datasets/%2e%2e/records", b"1 2\n")
                .unwrap()
                .status,
            400
        );
        shutdown.shutdown();
        join.join().unwrap().unwrap();
    }
}
