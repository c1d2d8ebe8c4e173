//! Which RPC outcomes count against a node, stated as a table and run
//! against both detectors the system builds: a client ring's (with its
//! circuit breaker) and a daemon's (no breaker). The rule is
//! `FailureDetector::record`: a breaker denial records nothing, an
//! error that indicts the node is a failure, and a reply or an
//! application error is a success.

use gkfs_client::DaemonRing;
use gkfs_common::{
    ClusterConfig, DaemonConfig, FailureDetector, GkfsError, ReplicationConfig, Result, RetryConfig,
};
use gkfs_daemon::Daemon;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Nothing,
    Failure,
    Success,
}

fn table() -> Vec<(Result<()>, Verdict)> {
    use Verdict::*;
    vec![
        (Ok(()), Success),
        (Err(GkfsError::NotFound), Success),
        (Err(GkfsError::Exists), Success),
        (Err(GkfsError::IsDirectory), Success),
        (Err(GkfsError::NotDirectory), Success),
        (Err(GkfsError::NotEmpty), Success),
        (Err(GkfsError::InvalidArgument("x".into())), Success),
        (Err(GkfsError::BadFileDescriptor), Success),
        (Err(GkfsError::Unsupported("rename")), Success),
        (Err(GkfsError::Io("disk".into())), Success),
        (Err(GkfsError::Rpc("reset".into())), Failure),
        (Err(GkfsError::Corruption("crc".into())), Failure),
        (Err(GkfsError::ShuttingDown), Failure),
        (Err(GkfsError::Timeout), Failure),
        (Err(GkfsError::Unavailable("breaker open".into())), Nothing),
    ]
}

/// Run every row against `node` of `d`. Before each row the node holds
/// one failure, so "nothing", "one more failure" and "streak reset"
/// each leave a different record behind.
fn check(d: &FailureDetector, node: usize) {
    for (outcome, verdict) in table() {
        d.record_ok(node);
        d.record_failure(node);
        let record = &d.records()[node];
        let failures = record.failures();
        d.record(node, &outcome);
        let after = (record.consecutive_failures(), record.failures() - failures);
        let expected = match verdict {
            Verdict::Nothing => (1, 0),
            Verdict::Failure => (2, 1),
            Verdict::Success => (0, 0),
        };
        assert_eq!(after, expected, "{outcome:?} must be {verdict:?}");
    }
}

#[test]
fn the_table_covers_every_error() {
    let mut codes: Vec<u32> = table()
        .iter()
        .filter_map(|(o, _)| o.as_ref().err())
        .map(GkfsError::code)
        .collect();
    codes.sort_unstable();
    assert_eq!(
        codes,
        (1..=14).collect::<Vec<_>>(),
        "one row per GkfsError variant"
    );
}

#[test]
fn a_client_rings_detector_follows_the_rule() {
    let daemon = Daemon::spawn(DaemonConfig::default()).unwrap();
    let ring = DaemonRing::new(
        vec![daemon.endpoint()],
        RetryConfig::default(),
        &ReplicationConfig::default(),
    );
    check(ring.detector(), 0);
}

#[test]
fn a_daemons_detector_follows_the_rule() {
    // A two-node cluster whose peer has no endpoint: the heartbeat
    // worker probes nobody, so only the table touches node 1's record.
    let daemon = Daemon::spawn(DaemonConfig::default()).unwrap();
    daemon.join_cluster(0, vec![None, None], &ClusterConfig::new(2));
    let repl = daemon.replication().unwrap();
    check(repl.detector(), 1);
    daemon.shutdown();
}
