//! Host and driver capabilities.
//!
//! `virsh capabilities` returns an XML document describing what the
//! connected hypervisor can do; management tools use it to pick a target
//! for a new guest. This module is the typed form plus its XML encoding
//! (capabilities travel over the RPC boundary as XML text, as in libvirt).

use virt_xml::{Document, Element};

use crate::error::{ErrorCode, VirtError, VirtResult};

/// What a connected hypervisor supports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capabilities {
    /// Hypervisor kind (e.g. `qemu`).
    pub hypervisor: String,
    /// Guest execution model (`hvm`, `paravirt`, `container`).
    pub virt_kind: String,
    /// Maximum vCPUs per guest.
    pub max_vcpus: u32,
    /// Feature flags: `migration`, `save_restore`, `snapshots`,
    /// `device_hotplug`, `resource_hotplug`.
    pub features: Vec<String>,
}

impl Capabilities {
    /// Whether a named feature is supported.
    pub fn has_feature(&self, feature: &str) -> bool {
        self.features.iter().any(|f| f == feature)
    }

    /// Builds the XML document.
    pub fn to_xml(&self) -> Element {
        let mut caps = Element::new("capabilities");
        let mut guest = Element::new("guest");
        guest.push_child(Element::with_text("hypervisor", &self.hypervisor));
        guest.push_child(Element::with_text("os_type", &self.virt_kind));
        guest.push_child(Element::with_text("max_vcpus", self.max_vcpus.to_string()));
        caps.push_child(guest);
        let mut features = Element::new("features");
        for feature in &self.features {
            features.push_child(Element::new(feature.as_str()));
        }
        caps.push_child(features);
        caps
    }

    /// Serializes to XML text.
    pub fn to_xml_string(&self) -> String {
        self.to_xml().to_string()
    }

    /// Parses the XML document form.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::XmlError`] on schema violations.
    pub fn from_xml_str(xml: &str) -> VirtResult<Capabilities> {
        let doc = Document::parse(xml)?;
        let el = doc.root();
        if el.name() != "capabilities" {
            return Err(VirtError::new(
                ErrorCode::XmlError,
                format!("expected <capabilities>, found <{}>", el.name()),
            ));
        }
        let guest = el
            .child("guest")
            .ok_or_else(|| VirtError::new(ErrorCode::XmlError, "missing <guest>"))?;
        let hypervisor = guest
            .child_text("hypervisor")
            .ok_or_else(|| VirtError::new(ErrorCode::XmlError, "missing <hypervisor>"))?
            .to_string();
        let virt_kind = guest
            .child_text("os_type")
            .ok_or_else(|| VirtError::new(ErrorCode::XmlError, "missing <os_type>"))?
            .to_string();
        let max_vcpus = guest
            .child_text("max_vcpus")
            .ok_or_else(|| VirtError::new(ErrorCode::XmlError, "missing <max_vcpus>"))?
            .parse::<u32>()
            .map_err(|_| VirtError::new(ErrorCode::XmlError, "bad <max_vcpus>"))?;
        let features = el
            .child("features")
            .map(|f| f.children().map(|c| c.name().to_string()).collect())
            .unwrap_or_default();
        Ok(Capabilities {
            hypervisor,
            virt_kind,
            max_vcpus,
            features,
        })
    }

    /// Derives capabilities from a hypersim personality.
    pub(crate) fn from_personality(p: &dyn hypersim::personality::Personality) -> Capabilities {
        let caps = p.capabilities();
        let mut features = Vec::new();
        if caps.migration {
            features.push("migration".to_string());
        }
        if caps.save_restore {
            features.push("save_restore".to_string());
        }
        if caps.snapshots {
            features.push("snapshots".to_string());
        }
        if caps.device_hotplug {
            features.push("device_hotplug".to_string());
        }
        if caps.resource_hotplug {
            features.push("resource_hotplug".to_string());
        }
        Capabilities {
            hypervisor: p.name().to_string(),
            virt_kind: p.virt_kind().to_string(),
            max_vcpus: caps.max_vcpus,
            features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersim::personality::{EsxLike, LxcLike, QemuLike, XenLike};

    #[test]
    fn xml_round_trip() {
        let caps = Capabilities {
            hypervisor: "qemu".to_string(),
            virt_kind: "hvm".to_string(),
            max_vcpus: 255,
            features: vec!["migration".to_string(), "snapshots".to_string()],
        };
        let parsed = Capabilities::from_xml_str(&caps.to_xml_string()).unwrap();
        assert_eq!(parsed, caps);
    }

    #[test]
    fn from_personality_reflects_feature_set() {
        let qemu = Capabilities::from_personality(&QemuLike);
        assert_eq!(qemu.hypervisor, "qemu");
        assert!(qemu.has_feature("migration"));
        assert!(qemu.has_feature("snapshots"));

        let xen = Capabilities::from_personality(&XenLike);
        assert!(xen.has_feature("migration"));
        assert!(!xen.has_feature("snapshots"));

        let lxc = Capabilities::from_personality(&LxcLike);
        assert_eq!(lxc.virt_kind, "container");
        assert!(!lxc.has_feature("migration"));
        assert!(!lxc.has_feature("save_restore"));

        let esx = Capabilities::from_personality(&EsxLike);
        assert!(esx.has_feature("save_restore"));
    }

    #[test]
    fn malformed_capabilities_rejected() {
        assert!(Capabilities::from_xml_str("<caps/>").is_err());
        assert!(Capabilities::from_xml_str("<capabilities/>").is_err());
        assert!(Capabilities::from_xml_str(
            "<capabilities><guest><hypervisor>q</hypervisor></guest></capabilities>"
        )
        .is_err());
    }

    #[test]
    fn empty_features_allowed() {
        let xml = "<capabilities><guest><hypervisor>x</hypervisor>\
                   <os_type>hvm</os_type><max_vcpus>1</max_vcpus></guest></capabilities>";
        let caps = Capabilities::from_xml_str(xml).unwrap();
        assert!(caps.features.is_empty());
        assert!(!caps.has_feature("migration"));
    }
}
