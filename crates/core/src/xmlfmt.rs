//! Typed resource descriptions and their XML forms.
//!
//! Every managed object is described by an XML document with a stable
//! schema (the libvirt approach: XML is *the* exchange format between
//! management applications, the library and the daemon). This module
//! defines the typed configurations, their serialization to/from XML, and
//! the conversions to the simulated hypervisor's spec types.

use std::net::Ipv4Addr;
use std::str::FromStr;

use hypersim::network::ForwardMode;
use hypersim::{DomainSpec, MiB, NetworkSpec, PoolBackend, PoolSpec, SimDisk, SimNic, VolumeSpec};
use virt_xml::{Document, ElemRef, Element};

use crate::error::{ErrorCode, VirtError, VirtResult};
use crate::uuid::Uuid;

// Decoding reads the borrowed view (`virt_xml::Document`): a description
// is parsed once, in place, and only what a config keeps is copied out of
// the request. `Element` is for building documents (`to_xml`).

fn required_child_text<'d>(el: ElemRef<'d>, name: &str) -> VirtResult<&'d str> {
    el.child_text(name)
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .ok_or_else(|| {
            VirtError::new(
                ErrorCode::XmlError,
                format!("<{}> is missing required <{name}> element", el.name()),
            )
        })
}

fn parse_u64_text(el: ElemRef<'_>, name: &str) -> VirtResult<u64> {
    let text = required_child_text(el, name)?;
    text.parse::<u64>().map_err(|_| {
        VirtError::new(
            ErrorCode::XmlError,
            format!("<{name}> value '{text}' is not a number"),
        )
    })
}

fn optional_uuid(el: ElemRef<'_>) -> VirtResult<Option<Uuid>> {
    match el.child_text("uuid").map(str::trim) {
        Some(text) if !text.is_empty() => Ok(Some(text.parse()?)),
        _ => Ok(None),
    }
}

fn expect_root(el: ElemRef<'_>, name: &str) -> VirtResult<()> {
    if el.name() != name {
        return Err(VirtError::new(
            ErrorCode::XmlError,
            format!("expected <{name}> document, found <{}>", el.name()),
        ));
    }
    Ok(())
}

/// A virtual disk in a domain description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskConfig {
    /// Guest device name (e.g. `vda`).
    pub target: String,
    /// Backing file or volume path.
    pub source: String,
    /// Capacity in MiB.
    pub capacity_mib: u64,
    /// Bus (`virtio`, `ide`, ...).
    pub bus: String,
}

impl DiskConfig {
    fn to_xml(&self) -> Element {
        let mut disk = Element::new("disk");
        disk.set_attr("type", "file").set_attr("device", "disk");
        let mut source = Element::new("source");
        source.set_attr("file", &self.source);
        disk.push_child(source);
        let mut target = Element::new("target");
        target
            .set_attr("dev", &self.target)
            .set_attr("bus", &self.bus);
        disk.push_child(target);
        let mut capacity = Element::with_text("capacity", self.capacity_mib.to_string());
        capacity.set_attr("unit", "MiB");
        disk.push_child(capacity);
        disk
    }

    /// Decodes a `<disk>` element, inside a domain or alone (hot-plug).
    pub(crate) fn decode(el: ElemRef<'_>) -> VirtResult<DiskConfig> {
        let target_el = el
            .child("target")
            .ok_or_else(|| VirtError::new(ErrorCode::XmlError, "<disk> is missing <target>"))?;
        let target = target_el
            .attr("dev")
            .ok_or_else(|| VirtError::new(ErrorCode::XmlError, "<target> is missing dev="))?
            .to_string();
        let bus = target_el.attr("bus").unwrap_or("virtio").to_string();
        let source = el
            .child("source")
            .and_then(|s| s.attr("file"))
            .unwrap_or_default()
            .to_string();
        let capacity_mib = match el.child("capacity") {
            Some(_) => parse_u64_text(el, "capacity")?,
            None => 0,
        };
        Ok(DiskConfig {
            target,
            source,
            capacity_mib,
            bus,
        })
    }
}

/// A virtual network interface in a domain description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceConfig {
    /// MAC address.
    pub mac: String,
    /// Virtual network name the NIC connects to.
    pub network: String,
    /// NIC model.
    pub model: String,
}

impl InterfaceConfig {
    fn to_xml(&self) -> Element {
        let mut iface = Element::new("interface");
        iface.set_attr("type", "network");
        let mut mac = Element::new("mac");
        mac.set_attr("address", &self.mac);
        iface.push_child(mac);
        let mut source = Element::new("source");
        source.set_attr("network", &self.network);
        iface.push_child(source);
        let mut model = Element::new("model");
        model.set_attr("type", &self.model);
        iface.push_child(model);
        iface
    }

    fn decode(el: ElemRef<'_>) -> VirtResult<InterfaceConfig> {
        let mac = el
            .child("mac")
            .and_then(|m| m.attr("address"))
            .ok_or_else(|| {
                VirtError::new(ErrorCode::XmlError, "<interface> is missing <mac address=>")
            })?
            .to_string();
        let network = el
            .child("source")
            .and_then(|s| s.attr("network"))
            .unwrap_or("default")
            .to_string();
        let model = el
            .child("model")
            .and_then(|m| m.attr("type"))
            .unwrap_or("virtio")
            .to_string();
        Ok(InterfaceConfig {
            mac,
            network,
            model,
        })
    }
}

/// A complete domain description.
///
/// # Examples
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use virt_core::xmlfmt::DomainConfig;
///
/// let config = DomainConfig::new("web", 1024, 2);
/// let xml = config.to_xml_string();
/// let parsed = DomainConfig::from_xml_str(&xml)?;
/// assert_eq!(parsed, config);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DomainConfig {
    /// Domain name, unique per host.
    pub name: String,
    /// UUID; `None` lets the hypervisor assign one at define time.
    pub uuid: Option<Uuid>,
    /// Hypervisor type attribute (e.g. `qemu`, `xen`, `lxc`, `esx`).
    pub domain_type: String,
    /// Current memory in MiB.
    pub memory_mib: u64,
    /// Maximum memory (balloon ceiling) in MiB.
    pub max_memory_mib: u64,
    /// vCPU count.
    pub vcpus: u32,
    /// Disks.
    pub disks: Vec<DiskConfig>,
    /// Network interfaces.
    pub interfaces: Vec<InterfaceConfig>,
    /// Memory dirty rate (MiB/s) used by migration modeling.
    pub dirty_rate_mib_s: u64,
}

impl DomainConfig {
    /// A minimal config with sensible defaults.
    pub fn new(name: impl Into<String>, memory_mib: u64, vcpus: u32) -> Self {
        DomainConfig {
            name: name.into(),
            uuid: None,
            domain_type: "qemu".to_string(),
            memory_mib,
            max_memory_mib: memory_mib,
            vcpus,
            disks: Vec::new(),
            interfaces: Vec::new(),
            dirty_rate_mib_s: 100,
        }
    }

    /// Builds the XML element.
    pub fn to_xml(&self) -> Element {
        let mut domain = Element::new("domain");
        domain.set_attr("type", &self.domain_type);
        domain.push_child(Element::with_text("name", &self.name));
        if let Some(uuid) = &self.uuid {
            domain.push_child(Element::with_text("uuid", uuid.to_string()));
        }
        let mut memory = Element::with_text("memory", self.max_memory_mib.to_string());
        memory.set_attr("unit", "MiB");
        domain.push_child(memory);
        let mut current = Element::with_text("currentMemory", self.memory_mib.to_string());
        current.set_attr("unit", "MiB");
        domain.push_child(current);
        domain.push_child(Element::with_text("vcpu", self.vcpus.to_string()));
        let mut dirty = Element::with_text("dirtyRate", self.dirty_rate_mib_s.to_string());
        dirty.set_attr("unit", "MiB/s");
        domain.push_child(dirty);
        let mut devices = Element::new("devices");
        for disk in &self.disks {
            devices.push_child(disk.to_xml());
        }
        for iface in &self.interfaces {
            devices.push_child(iface.to_xml());
        }
        domain.push_child(devices);
        domain
    }

    /// Serializes to compact XML text.
    pub fn to_xml_string(&self) -> String {
        self.to_xml().to_string()
    }

    /// Parses a domain description element.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::XmlError`] on schema violations.
    pub fn from_xml(el: &Element) -> VirtResult<DomainConfig> {
        DomainConfig::decode(Document::from(el).root())
    }

    fn decode(el: ElemRef<'_>) -> VirtResult<DomainConfig> {
        expect_root(el, "domain")?;
        let domain_type = el.attr("type").unwrap_or("qemu").to_string();
        let name = required_child_text(el, "name")?.to_string();
        let uuid = optional_uuid(el)?;
        let max_memory_mib = parse_u64_text(el, "memory")?;
        let memory_mib = match el.child("currentMemory") {
            Some(_) => parse_u64_text(el, "currentMemory")?,
            None => max_memory_mib,
        };
        let vcpus = parse_u64_text(el, "vcpu")? as u32;
        let dirty_rate_mib_s = match el.child("dirtyRate") {
            Some(_) => parse_u64_text(el, "dirtyRate")?,
            None => 100,
        };
        let mut disks = Vec::new();
        let mut interfaces = Vec::new();
        if let Some(devices) = el.child("devices") {
            for child in devices.children() {
                match child.name() {
                    "disk" => disks.push(DiskConfig::decode(child)?),
                    "interface" => interfaces.push(InterfaceConfig::decode(child)?),
                    _ => {} // Unknown devices are preserved-by-ignoring.
                }
            }
        }
        Ok(DomainConfig {
            name,
            uuid,
            domain_type,
            memory_mib,
            max_memory_mib,
            vcpus,
            disks,
            interfaces,
            dirty_rate_mib_s,
        })
    }

    /// Parses a domain description from XML text.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::XmlError`] on parse or schema failures.
    pub fn from_xml_str(xml: &str) -> VirtResult<DomainConfig> {
        DomainConfig::decode(Document::parse(xml)?.root())
    }

    /// Converts to the simulated hypervisor's spec.
    pub fn to_spec(&self) -> DomainSpec {
        let mut spec = DomainSpec::new(&self.name)
            .memory_mib(self.memory_mib)
            .max_memory_mib(self.max_memory_mib)
            .vcpus(self.vcpus)
            .dirty_rate_mib_s(self.dirty_rate_mib_s);
        for disk in &self.disks {
            spec = spec.disk(SimDisk {
                target: disk.target.clone(),
                source: disk.source.clone(),
                capacity: MiB(disk.capacity_mib),
                bus: disk.bus.clone(),
            });
        }
        for iface in &self.interfaces {
            spec = spec.nic(SimNic {
                mac: iface.mac.clone(),
                network: iface.network.clone(),
                model: iface.model.clone(),
            });
        }
        spec
    }

    /// Rebuilds a config from a hypervisor spec (for `dumpxml`).
    pub fn from_spec(spec: &DomainSpec, domain_type: &str, uuid: Uuid) -> DomainConfig {
        DomainConfig {
            name: spec.name().to_string(),
            uuid: Some(uuid),
            domain_type: domain_type.to_string(),
            memory_mib: spec.memory().0,
            max_memory_mib: spec.max_memory().0,
            vcpus: spec.vcpu_count(),
            disks: spec
                .disks()
                .iter()
                .map(|d| DiskConfig {
                    target: d.target.clone(),
                    source: d.source.clone(),
                    capacity_mib: d.capacity.0,
                    bus: d.bus.clone(),
                })
                .collect(),
            interfaces: spec
                .nics()
                .iter()
                .map(|n| InterfaceConfig {
                    mac: n.mac.clone(),
                    network: n.network.clone(),
                    model: n.model.clone(),
                })
                .collect(),
            dirty_rate_mib_s: spec.dirty_rate(),
        }
    }
}

/// A virtual network description.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Network name.
    pub name: String,
    /// UUID; assigned when omitted.
    pub uuid: Option<Uuid>,
    /// Bridge device name.
    pub bridge: String,
    /// Forward mode.
    pub forward: ForwardMode,
    /// IPv4 subnet base address (a /24).
    pub subnet: Ipv4Addr,
}

impl NetworkConfig {
    /// A NAT network on the given subnet.
    pub fn new(name: impl Into<String>, subnet: Ipv4Addr) -> Self {
        let name = name.into();
        NetworkConfig {
            bridge: format!("virbr-{name}"),
            name,
            uuid: None,
            forward: ForwardMode::Nat,
            subnet,
        }
    }

    /// Builds the XML element.
    pub fn to_xml(&self) -> Element {
        let mut net = Element::new("network");
        net.push_child(Element::with_text("name", &self.name));
        if let Some(uuid) = &self.uuid {
            net.push_child(Element::with_text("uuid", uuid.to_string()));
        }
        let mut bridge = Element::new("bridge");
        bridge.set_attr("name", &self.bridge);
        net.push_child(bridge);
        let mut forward = Element::new("forward");
        forward.set_attr("mode", self.forward.to_string());
        net.push_child(forward);
        let mut ip = Element::new("ip");
        ip.set_attr("address", self.subnet.to_string());
        ip.set_attr("netmask", "255.255.255.0");
        net.push_child(ip);
        net
    }

    /// Serializes to compact XML text.
    pub fn to_xml_string(&self) -> String {
        self.to_xml().to_string()
    }

    /// Parses a network description.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::XmlError`] on schema violations.
    pub fn from_xml_str(xml: &str) -> VirtResult<NetworkConfig> {
        let doc = Document::parse(xml)?;
        let el = doc.root();
        expect_root(el, "network")?;
        let name = required_child_text(el, "name")?.to_string();
        let uuid = optional_uuid(el)?;
        let bridge = el
            .child("bridge")
            .and_then(|b| b.attr("name"))
            .map(str::to_string)
            .unwrap_or_else(|| format!("virbr-{name}"));
        let forward = match el.child("forward").and_then(|f| f.attr("mode")) {
            Some(mode) => ForwardMode::from_str(mode).map_err(VirtError::from)?,
            None => ForwardMode::Isolated,
        };
        let subnet = el
            .child("ip")
            .and_then(|ip| ip.attr("address"))
            .ok_or_else(|| {
                VirtError::new(ErrorCode::XmlError, "<network> is missing <ip address=>")
            })?
            .parse::<Ipv4Addr>()
            .map_err(|e| VirtError::new(ErrorCode::XmlError, format!("bad ip address: {e}")))?;
        Ok(NetworkConfig {
            name,
            uuid,
            bridge,
            forward,
            subnet,
        })
    }

    /// Converts to the hypervisor spec.
    pub fn to_spec(&self) -> NetworkSpec {
        NetworkSpec::new(&self.name, self.subnet)
            .forward(self.forward)
            .bridge(&self.bridge)
    }
}

/// A storage pool description.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// Pool name.
    pub name: String,
    /// Backend type.
    pub backend: PoolBackend,
    /// Total capacity in MiB.
    pub capacity_mib: u64,
    /// Target path.
    pub target_path: String,
}

impl PoolConfig {
    /// A dir-backed pool.
    pub fn new(name: impl Into<String>, backend: PoolBackend, capacity_mib: u64) -> Self {
        let name = name.into();
        PoolConfig {
            target_path: format!("/var/lib/virt/{name}"),
            name,
            backend,
            capacity_mib,
        }
    }

    /// Builds the XML element.
    pub fn to_xml(&self) -> Element {
        let mut pool = Element::new("pool");
        pool.set_attr("type", self.backend.to_string());
        pool.push_child(Element::with_text("name", &self.name));
        let mut capacity = Element::with_text("capacity", self.capacity_mib.to_string());
        capacity.set_attr("unit", "MiB");
        pool.push_child(capacity);
        let mut target = Element::new("target");
        target.push_child(Element::with_text("path", &self.target_path));
        pool.push_child(target);
        pool
    }

    /// Serializes to compact XML text.
    pub fn to_xml_string(&self) -> String {
        self.to_xml().to_string()
    }

    /// Parses a pool description.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::XmlError`] on schema violations.
    pub fn from_xml_str(xml: &str) -> VirtResult<PoolConfig> {
        let doc = Document::parse(xml)?;
        let el = doc.root();
        expect_root(el, "pool")?;
        let backend = el
            .attr("type")
            .unwrap_or("dir")
            .parse::<PoolBackend>()
            .map_err(VirtError::from)?;
        let name = required_child_text(el, "name")?.to_string();
        let capacity_mib = parse_u64_text(el, "capacity")?;
        let target_path = el
            .find("target/path")
            .map(|p| p.text())
            .filter(|t| !t.is_empty())
            .map_or_else(|| format!("/var/lib/virt/{name}"), String::from);
        Ok(PoolConfig {
            name,
            backend,
            capacity_mib,
            target_path,
        })
    }

    /// Converts to the hypervisor spec.
    pub fn to_spec(&self) -> PoolSpec {
        PoolSpec::new(&self.name, self.backend, MiB(self.capacity_mib))
            .target_path(&self.target_path)
    }
}

/// A storage volume description.
#[derive(Debug, Clone, PartialEq)]
pub struct VolumeConfig {
    /// Volume name.
    pub name: String,
    /// Capacity in MiB.
    pub capacity_mib: u64,
    /// Image format (`raw`, `qcow2`, ...).
    pub format: String,
}

impl VolumeConfig {
    /// A raw-format volume.
    pub fn new(name: impl Into<String>, capacity_mib: u64) -> Self {
        VolumeConfig {
            name: name.into(),
            capacity_mib,
            format: "raw".to_string(),
        }
    }

    /// Builds the XML element.
    pub fn to_xml(&self) -> Element {
        let mut vol = Element::new("volume");
        vol.push_child(Element::with_text("name", &self.name));
        let mut capacity = Element::with_text("capacity", self.capacity_mib.to_string());
        capacity.set_attr("unit", "MiB");
        vol.push_child(capacity);
        let mut target = Element::new("target");
        let mut format = Element::new("format");
        format.set_attr("type", &self.format);
        target.push_child(format);
        vol.push_child(target);
        vol
    }

    /// Serializes to compact XML text.
    pub fn to_xml_string(&self) -> String {
        self.to_xml().to_string()
    }

    /// Parses a volume description.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::XmlError`] on schema violations.
    pub fn from_xml_str(xml: &str) -> VirtResult<VolumeConfig> {
        let doc = Document::parse(xml)?;
        let el = doc.root();
        expect_root(el, "volume")?;
        let name = required_child_text(el, "name")?.to_string();
        let capacity_mib = parse_u64_text(el, "capacity")?;
        let format = el
            .find("target/format")
            .and_then(|f| f.attr("type"))
            .unwrap_or("raw")
            .to_string();
        Ok(VolumeConfig {
            name,
            capacity_mib,
            format,
        })
    }

    /// Converts to the hypervisor spec.
    pub fn to_spec(&self) -> VolumeSpec {
        VolumeSpec::new(&self.name, MiB(self.capacity_mib)).format(&self.format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_domain() -> DomainConfig {
        let mut config = DomainConfig::new("web", 1024, 2);
        config.max_memory_mib = 2048;
        config.uuid = Some("6ba7b810-9dad-41d1-80b4-00c04fd430c8".parse().unwrap());
        config.domain_type = "xen".to_string();
        config.dirty_rate_mib_s = 250;
        config.disks.push(DiskConfig {
            target: "vda".to_string(),
            source: "/var/lib/virt/default/web.img".to_string(),
            capacity_mib: 8192,
            bus: "virtio".to_string(),
        });
        config.interfaces.push(InterfaceConfig {
            mac: "52:54:00:aa:bb:cc".to_string(),
            network: "default".to_string(),
            model: "virtio".to_string(),
        });
        config
    }

    #[test]
    fn domain_xml_round_trip() {
        let config = full_domain();
        let xml = config.to_xml_string();
        let parsed = DomainConfig::from_xml_str(&xml).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn minimal_domain_defaults() {
        let xml = "<domain><name>tiny</name><memory unit='MiB'>256</memory><vcpu>1</vcpu></domain>";
        let config = DomainConfig::from_xml_str(xml).unwrap();
        assert_eq!(config.name, "tiny");
        assert_eq!(config.memory_mib, 256);
        assert_eq!(config.max_memory_mib, 256);
        assert_eq!(config.domain_type, "qemu");
        assert_eq!(config.dirty_rate_mib_s, 100);
        assert!(config.uuid.is_none());
        assert!(config.disks.is_empty());
    }

    #[test]
    fn domain_missing_name_rejected() {
        let err = DomainConfig::from_xml_str("<domain><memory>1</memory><vcpu>1</vcpu></domain>")
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::XmlError);
        assert!(err.message().contains("<name>"));
    }

    #[test]
    fn domain_bad_number_rejected() {
        let xml = "<domain><name>x</name><memory>lots</memory><vcpu>1</vcpu></domain>";
        let err = DomainConfig::from_xml_str(xml).unwrap_err();
        assert_eq!(err.code(), ErrorCode::XmlError);
    }

    #[test]
    fn domain_bad_uuid_rejected() {
        let xml =
            "<domain><name>x</name><uuid>nope</uuid><memory>1</memory><vcpu>1</vcpu></domain>";
        assert!(DomainConfig::from_xml_str(xml).is_err());
    }

    #[test]
    fn wrong_root_element_rejected() {
        let err = DomainConfig::from_xml_str("<network><name>x</name></network>").unwrap_err();
        assert!(err.message().contains("expected <domain>"));
    }

    #[test]
    fn domain_spec_round_trip() {
        let config = full_domain();
        let spec = config.to_spec();
        assert_eq!(spec.name(), "web");
        assert_eq!(spec.memory(), MiB(1024));
        assert_eq!(spec.max_memory(), MiB(2048));
        assert_eq!(spec.vcpu_count(), 2);
        assert_eq!(spec.disks().len(), 1);
        assert_eq!(spec.nics().len(), 1);
        assert_eq!(spec.dirty_rate(), 250);

        let back = DomainConfig::from_spec(&spec, "xen", config.uuid.unwrap());
        assert_eq!(back, config);
    }

    #[test]
    fn disk_defaults() {
        let xml = "<domain><name>d</name><memory>1</memory><vcpu>1</vcpu>\
                   <devices><disk><target dev='hda'/></disk></devices></domain>";
        let config = DomainConfig::from_xml_str(xml).unwrap();
        assert_eq!(config.disks[0].bus, "virtio");
        assert_eq!(config.disks[0].capacity_mib, 0);
        assert_eq!(config.disks[0].source, "");
    }

    #[test]
    fn disk_missing_target_rejected() {
        let xml = "<domain><name>d</name><memory>1</memory><vcpu>1</vcpu>\
                   <devices><disk><source file='/x'/></disk></devices></domain>";
        assert!(DomainConfig::from_xml_str(xml).is_err());
    }

    #[test]
    fn interface_missing_mac_rejected() {
        let xml = "<domain><name>d</name><memory>1</memory><vcpu>1</vcpu>\
                   <devices><interface type='network'/></devices></domain>";
        assert!(DomainConfig::from_xml_str(xml).is_err());
    }

    #[test]
    fn unknown_devices_are_ignored() {
        let xml = "<domain><name>d</name><memory>1</memory><vcpu>1</vcpu>\
                   <devices><tpm model='tpm-tis'/><console type='pty'/></devices></domain>";
        let config = DomainConfig::from_xml_str(xml).unwrap();
        assert!(config.disks.is_empty());
        assert!(config.interfaces.is_empty());
    }

    #[test]
    fn network_xml_round_trip() {
        let mut config = NetworkConfig::new("lan", Ipv4Addr::new(10, 0, 0, 0));
        config.uuid = Some(Uuid::generate());
        config.forward = ForwardMode::Route;
        let parsed = NetworkConfig::from_xml_str(&config.to_xml_string()).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn network_without_forward_is_isolated() {
        let xml = "<network><name>n</name><ip address='10.1.0.0'/></network>";
        let config = NetworkConfig::from_xml_str(xml).unwrap();
        assert_eq!(config.forward, ForwardMode::Isolated);
        assert_eq!(config.bridge, "virbr-n");
    }

    #[test]
    fn network_missing_ip_rejected() {
        let err = NetworkConfig::from_xml_str("<network><name>n</name></network>").unwrap_err();
        assert_eq!(err.code(), ErrorCode::XmlError);
    }

    #[test]
    fn network_bad_address_rejected() {
        let xml = "<network><name>n</name><ip address='not-an-ip'/></network>";
        assert!(NetworkConfig::from_xml_str(xml).is_err());
    }

    #[test]
    fn pool_xml_round_trip() {
        let mut config = PoolConfig::new("images", PoolBackend::Logical, 100_000);
        config.target_path = "/dev/vg0".to_string();
        let parsed = PoolConfig::from_xml_str(&config.to_xml_string()).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn pool_defaults() {
        let xml = "<pool><name>p</name><capacity>500</capacity></pool>";
        let config = PoolConfig::from_xml_str(xml).unwrap();
        assert_eq!(config.backend, PoolBackend::Dir);
        assert_eq!(config.target_path, "/var/lib/virt/p");
    }

    #[test]
    fn pool_bad_backend_rejected() {
        let xml = "<pool type='floppy'><name>p</name><capacity>1</capacity></pool>";
        assert!(PoolConfig::from_xml_str(xml).is_err());
    }

    #[test]
    fn volume_xml_round_trip() {
        let mut config = VolumeConfig::new("disk.qcow2", 4096);
        config.format = "qcow2".to_string();
        let parsed = VolumeConfig::from_xml_str(&config.to_xml_string()).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn volume_default_format_is_raw() {
        let xml = "<volume><name>v</name><capacity>10</capacity></volume>";
        assert_eq!(VolumeConfig::from_xml_str(xml).unwrap().format, "raw");
    }

    #[test]
    fn specs_convert() {
        let net = NetworkConfig::new("lan", Ipv4Addr::new(10, 0, 0, 0)).to_spec();
        assert_eq!(net.name(), "lan");
        let pool = PoolConfig::new("p", PoolBackend::Dir, 10).to_spec();
        assert_eq!(pool.capacity(), MiB(10));
        let vol = VolumeConfig::new("v", 5).to_spec();
        assert_eq!(vol.capacity(), MiB(5));
    }
}
