//! Connection URIs.
//!
//! A connection is addressed by a URI of the libvirt form:
//!
//! ```text
//! driver[+transport]://[username@][hostname][:port]/[path][?param=value&...]
//! ```
//!
//! The scheme's `driver` part selects the hypervisor driver; the optional
//! `+transport` suffix selects how to reach the managing daemon (`unix`,
//! `tcp`, `tls`, or the test-oriented `memory`). A scheme no stateless
//! driver recognizes is routed to the remote driver — exactly libvirt's
//! resolution rule.

use std::fmt;
use std::str::FromStr;

use virt_rpc::TransportKind;

use crate::error::{ErrorCode, VirtError, VirtResult};

/// Reads a `+transport` scheme suffix by the transports' names.
fn parse_transport(name: &str) -> VirtResult<TransportKind> {
    TransportKind::ALL
        .iter()
        .copied()
        .find(|kind| kind.name() == name)
        .ok_or_else(|| VirtError::new(ErrorCode::InvalidUri, format!("unknown transport '{name}'")))
}

/// A parsed connection URI.
///
/// # Examples
///
/// ```
/// use virt_core::uri::ConnectUri;
///
/// let uri: ConnectUri = "qemu+tcp://admin@mgmt.example.com:16509/system?keepalive=off"
///     .parse()
///     .unwrap();
/// assert_eq!(uri.driver(), "qemu");
/// assert_eq!(uri.host(), Some("mgmt.example.com"));
/// assert_eq!(uri.port(), Some(16509));
/// assert_eq!(uri.username(), Some("admin"));
/// assert_eq!(uri.path(), "/system");
/// assert_eq!(uri.param("keepalive"), Some("off"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectUri {
    driver: String,
    transport: Option<TransportKind>,
    username: Option<String>,
    host: Option<String>,
    port: Option<u16>,
    path: String,
    params: Vec<(String, String)>,
}

impl ConnectUri {
    /// The driver scheme, e.g. `qemu`.
    pub fn driver(&self) -> &str {
        &self.driver
    }

    /// The explicit transport, if any.
    pub fn transport(&self) -> Option<TransportKind> {
        self.transport
    }

    /// The username component.
    pub fn username(&self) -> Option<&str> {
        self.username.as_deref()
    }

    /// The host component.
    pub fn host(&self) -> Option<&str> {
        self.host.as_deref()
    }

    /// The port component.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// The path component (always begins with `/` when non-empty).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Looks up a query parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// All query parameters in order.
    pub fn params(&self) -> &[(String, String)] {
        &self.params
    }

    /// `true` when the URI names no host — a local connection.
    pub(crate) fn is_local(&self) -> bool {
        self.host.is_none()
    }

    /// The URI with the transport suffix stripped, as forwarded to the
    /// daemon (the daemon re-resolves the bare driver scheme locally).
    ///
    /// ```
    /// use virt_core::uri::ConnectUri;
    /// let uri: ConnectUri = "qemu+tcp://node7/system".parse().unwrap();
    /// assert_eq!(uri.inner_uri(), "qemu:///system");
    /// ```
    pub fn inner_uri(&self) -> String {
        format!("{}://{}", self.driver, self.path)
    }
}

impl FromStr for ConnectUri {
    type Err = VirtError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |why: &str| VirtError::new(ErrorCode::InvalidUri, format!("'{s}': {why}"));

        let (scheme, rest) = s.split_once("://").ok_or_else(|| bad("missing '://'"))?;
        if scheme.is_empty() {
            return Err(bad("empty scheme"));
        }
        let (driver, transport) = match scheme.split_once('+') {
            Some((driver, transport)) => {
                if driver.is_empty() {
                    return Err(bad("empty driver"));
                }
                (driver.to_string(), Some(parse_transport(transport)?))
            }
            None => (scheme.to_string(), None),
        };
        if !driver
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-')
        {
            return Err(bad("driver contains invalid characters"));
        }

        // Split query off first.
        let (rest, query) = match rest.split_once('?') {
            Some((r, q)) => (r, Some(q)),
            None => (rest, None),
        };

        // Authority ends at the first '/'.
        let (authority, path) = match rest.find('/') {
            Some(idx) => (&rest[..idx], rest[idx..].to_string()),
            None => (rest, String::new()),
        };

        let (username, hostport) = match authority.split_once('@') {
            Some((user, hp)) => {
                if user.is_empty() {
                    return Err(bad("empty username"));
                }
                (Some(user.to_string()), hp)
            }
            None => (None, authority),
        };

        let (host, port) = if hostport.is_empty() {
            (None, None)
        } else {
            match hostport.rsplit_once(':') {
                Some((h, p)) => {
                    let port = p.parse::<u16>().map_err(|_| bad("invalid port"))?;
                    if h.is_empty() {
                        return Err(bad("empty host before port"));
                    }
                    (Some(h.to_string()), Some(port))
                }
                None => (Some(hostport.to_string()), None),
            }
        };

        let mut params = Vec::new();
        if let Some(query) = query {
            for pair in query.split('&').filter(|p| !p.is_empty()) {
                match pair.split_once('=') {
                    Some((k, v)) => params.push((k.to_string(), v.to_string())),
                    None => params.push((pair.to_string(), String::new())),
                }
            }
        }

        Ok(ConnectUri {
            driver,
            transport,
            username,
            host,
            port,
            path,
            params,
        })
    }
}

impl fmt::Display for ConnectUri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.driver)?;
        if let Some(transport) = self.transport {
            write!(f, "+{transport}")?;
        }
        write!(f, "://")?;
        if let Some(user) = &self.username {
            write!(f, "{user}@")?;
        }
        if let Some(host) = &self.host {
            write!(f, "{host}")?;
        }
        if let Some(port) = self.port {
            write!(f, ":{port}")?;
        }
        write!(f, "{}", self.path)?;
        if !self.params.is_empty() {
            write!(f, "?")?;
            for (i, (k, v)) in self.params.iter().enumerate() {
                if i > 0 {
                    write!(f, "&")?;
                }
                if v.is_empty() {
                    write!(f, "{k}")?;
                } else {
                    write!(f, "{k}={v}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_local_uri() {
        let uri: ConnectUri = "test:///default".parse().unwrap();
        assert_eq!(uri.driver(), "test");
        assert_eq!(uri.transport(), None);
        assert!(uri.is_local());
        assert_eq!(uri.path(), "/default");
    }

    #[test]
    fn full_uri_parses_every_component() {
        let uri: ConnectUri = "xen+tls://root@xenhost:5000/system?no_verify=1&mode=x"
            .parse()
            .unwrap();
        assert_eq!(uri.driver(), "xen");
        assert_eq!(uri.transport(), Some(TransportKind::Tls));
        assert_eq!(uri.username(), Some("root"));
        assert_eq!(uri.host(), Some("xenhost"));
        assert_eq!(uri.port(), Some(5000));
        assert_eq!(uri.path(), "/system");
        assert_eq!(uri.param("no_verify"), Some("1"));
        assert_eq!(uri.param("mode"), Some("x"));
        assert_eq!(uri.param("absent"), None);
        assert!(!uri.is_local());
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "test:///default",
            "qemu:///system",
            "qemu+unix:///system",
            "qemu+tcp://node:16509/system",
            "esx://admin@esx1/",
            "xen+tls://root@xenhost:5000/system?no_verify=1",
            "lxc+memory://nodeb/",
            "qemu://host/system?a&b=2",
        ] {
            let uri: ConnectUri = text.parse().unwrap();
            assert_eq!(uri.to_string(), text, "round trip of {text}");
            // Re-parse of the display form is identical.
            assert_eq!(uri.to_string().parse::<ConnectUri>().unwrap(), uri);
        }
    }

    #[test]
    fn inner_uri_strips_transport_and_authority() {
        let uri: ConnectUri = "qemu+tcp://node:16509/system".parse().unwrap();
        assert_eq!(uri.inner_uri(), "qemu:///system");
        let local: ConnectUri = "test:///default".parse().unwrap();
        assert_eq!(local.inner_uri(), "test:///default");
    }

    #[test]
    fn malformed_uris_rejected() {
        for bad in [
            "",
            "qemu",
            "://host/",
            "qemu+warp://h/",
            "+tcp://h/",
            "qemu+tcp://user@:55/x",
            "qemu://host:notaport/",
            "qemu://@host/",
            "q emu://host/",
        ] {
            let err = bad.parse::<ConnectUri>().unwrap_err();
            assert_eq!(err.code(), ErrorCode::InvalidUri, "{bad:?}");
        }
    }

    #[test]
    fn host_without_port_or_path() {
        let uri: ConnectUri = "esx://esx1".parse().unwrap();
        assert_eq!(uri.host(), Some("esx1"));
        assert_eq!(uri.port(), None);
        assert_eq!(uri.path(), "");
    }

    #[test]
    fn empty_param_value_allowed() {
        let uri: ConnectUri = "qemu:///system?readonly".parse().unwrap();
        assert_eq!(uri.param("readonly"), Some(""));
    }

    #[test]
    fn all_transports_parse() {
        for (text, expected) in [
            ("qemu+unix:///s", TransportKind::Unix),
            ("qemu+tcp://h/s", TransportKind::Tcp),
            ("qemu+tls://h/s", TransportKind::Tls),
            ("qemu+memory://h/s", TransportKind::Memory),
        ] {
            let uri: ConnectUri = text.parse().unwrap();
            assert_eq!(uri.transport(), Some(expected));
        }
    }
}
