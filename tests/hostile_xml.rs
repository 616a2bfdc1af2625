//! Hostile XML at the trust boundary: every procedure that takes a
//! document from the peer answers a pathological one with an ordinary
//! error reply, and the daemon goes on serving.
//!
//! Before the tokenizer carried a depth bound, a document nested 5 000
//! elements deep (35 kB) overflowed the 2 MiB stack of the worker that
//! parsed it and the runtime aborted the whole daemon; every client got
//! `connection closed`. The daemon here runs inside the test process, so
//! that abort would take the test down with it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use virt_core::driver::{HypervisorConnection, HypervisorDriver, OpenOptions};
use virt_core::drivers::remote::RemoteDriver;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{ErrorCode, VirtResult};
use virt_rpc::transport::UnixSocketListener;
use virtd::Virtd;

const LEVELS: usize = 100_000;

struct Daemon {
    daemon: Virtd,
    socket: String,
}

impl Daemon {
    fn start() -> Daemon {
        static N: AtomicU64 = AtomicU64::new(0);
        let id = format!(
            "hostile-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        );
        let daemon = Virtd::builder(&id).with_quiet_hosts().build().unwrap();
        let socket = format!("/tmp/{id}.sock");
        daemon.serve(Box::new(UnixSocketListener::bind(&socket).unwrap()));
        Daemon { daemon, socket }
    }

    fn connect(&self) -> Arc<dyn HypervisorConnection> {
        let uri = format!("qemu+unix:///system?socket={}", self.socket);
        RemoteDriver::new()
            .open(&uri.parse().unwrap(), &OpenOptions::default())
            .unwrap()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.daemon.shutdown();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// A domain description that opens `LEVELS` elements below its name —
/// never closed (the most depth per byte) or closed (well-formed but for
/// the depth).
fn nested_domain(closed: bool) -> String {
    let mut xml = String::from("<domain type=\"qemu\"><name>x</name>");
    xml.push_str(&"<a>".repeat(LEVELS));
    if closed {
        xml.push_str(&"</a>".repeat(LEVELS));
        xml.push_str("</domain>");
    }
    xml
}

/// A disk whose `<target>` carries 50 000 distinct attributes: the
/// duplicate check used to compare each with all before it.
fn overdressed_disk() -> String {
    let mut xml = String::from("<disk><target dev='vdz'");
    for i in 0..50_000 {
        xml.push_str(&format!(" a{i}=''"));
    }
    xml.push_str("/></disk>");
    xml
}

fn assert_refused<T>(what: &str, result: VirtResult<T>, reason: &str) {
    let err = match result {
        Err(err) => err,
        Ok(_) => panic!("{what}: a hostile document was accepted"),
    };
    assert_eq!(err.code(), ErrorCode::XmlError, "{what}: {err}");
    assert!(err.message().contains(reason), "{what}: {err}");
}

#[test]
fn every_document_taking_procedure_refuses_a_bottomless_document_and_serves_on() {
    let daemon = Daemon::start();
    let conn = daemon.connect();
    conn.define_domain_xml(&DomainConfig::new("victim", 64, 1).to_xml_string())
        .unwrap();
    let too_deep = "element nesting too deep";

    for closed in [false, true] {
        let xml = nested_domain(closed);
        let calls: [(&str, VirtResult<()>); 5] = [
            ("DOMAIN_DEFINE_XML", conn.define_domain_xml(&xml).map(drop)),
            ("DOMAIN_CREATE_XML", conn.create_domain_xml(&xml).map(drop)),
            (
                "DOMAIN_ATTACH_DEVICE",
                conn.attach_device("victim", &xml).map(drop),
            ),
            ("MIGRATE_PREPARE", conn.migrate_prepare(&xml)),
            ("MIGRATE_FINISH", conn.migrate_finish(&xml).map(drop)),
        ];
        for (procedure, result) in calls {
            assert_refused(procedure, result, too_deep);
            // The same connection is still served ...
            let names: Vec<String> = conn
                .list_domains()
                .unwrap_or_else(|e| panic!("after {procedure}: {e}"))
                .into_iter()
                .map(|d| d.name)
                .collect();
            assert_eq!(names, ["victim"], "after {procedure}");
        }
    }

    // ... and so is a new one, by a daemon that still does real work.
    let fresh = daemon.connect();
    fresh
        .define_domain_xml(&DomainConfig::new("after", 64, 1).to_xml_string())
        .unwrap();
    fresh.start_domain("after").unwrap();
    assert_eq!(fresh.list_domains().unwrap().len(), 2);
    fresh.close();
    conn.close();
}

#[test]
fn an_element_with_fifty_thousand_attributes_is_refused() {
    let daemon = Daemon::start();
    let conn = daemon.connect();
    conn.define_domain_xml(&DomainConfig::new("victim", 64, 1).to_xml_string())
        .unwrap();
    assert_refused(
        "DOMAIN_ATTACH_DEVICE",
        conn.attach_device("victim", &overdressed_disk()),
        "too many attributes",
    );
    assert!(conn.lookup_domain_by_name("victim").is_ok());
    conn.close();
}

#[test]
fn nesting_at_the_bound_is_still_a_domain() {
    let daemon = Daemon::start();
    let conn = daemon.connect();
    // <domain> + <metadata> + 254 levels = virt_xml::MAX_DEPTH.
    let levels = virt_xml::MAX_DEPTH - 2;
    let xml = format!(
        "<domain><name>deep</name><memory>64</memory><vcpu>1</vcpu><metadata>{}{}</metadata></domain>",
        "<m>".repeat(levels),
        "</m>".repeat(levels)
    );
    conn.define_domain_xml(&xml).unwrap();
    let one_more = xml
        .replace("<metadata>", "<metadata><m>")
        .replace("</metadata>", "</m></metadata>");
    assert_refused(
        "DOMAIN_DEFINE_XML",
        conn.define_domain_xml(&one_more),
        "element nesting too deep",
    );
    conn.close();
}
