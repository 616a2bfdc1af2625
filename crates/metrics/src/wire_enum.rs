/// Declares a C-like wire enum once: one row per variant, stating its doc
/// line, its wire number and its stable name.
///
/// ```
/// virt_metrics::wire_enum! {
///     /// A traffic light.
///     #[derive(Debug, Clone, Copy, PartialEq, Eq)]
///     pub enum Light {
///         /// Stop.
///         Red = 0 => "red",
///         /// Go.
///         Green = 1 => "green",
///     }
/// }
///
/// assert_eq!(Light::Green.as_u32(), 1);
/// assert_eq!(Light::from_u32(0), Some(Light::Red));
/// assert_eq!(Light::from_u32(7), None);
/// assert_eq!(Light::Red.name(), "red");
/// assert_eq!(Light::Green.to_string(), "green");
/// assert_eq!(Light::ALL, [Light::Red, Light::Green]);
/// ```
///
/// From the rows it generates:
///
/// - the enum, `#[repr(u32)]`, with the enum's and each variant's
///   attributes passed through (derives, `#[non_exhaustive]`,
///   `#[default]`); a derived `Ord` follows the row order;
/// - `ALL`: every variant, in row order;
/// - `as_u32`: the wire number;
/// - `from_u32(u32) -> Option<Self>`: `None` for a number this build does
///   not know — what that means is the type's own rule, a one-line
///   wrapper beside the table (a fallback variant, or an error);
/// - `name()` and `Display`: the stable name.
///
/// A wire enum carried inside an XDR record gets its codec from
/// `virt_rpc::xdr_as_u32!`.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$attr:meta])*
        $vis:vis enum $enum:ident {
            $($(#[$vattr:meta])* $variant:ident = $number:literal => $name:literal,)*
        }
    ) => {
        $(#[$attr])*
        #[repr(u32)]
        $vis enum $enum {
            $($(#[$vattr])* $variant = $number,)*
        }

        impl $enum {
            /// Every variant, in table order.
            pub const ALL: &'static [$enum] = &[$($enum::$variant),*];

            /// The wire number.
            pub const fn as_u32(self) -> u32 {
                self as u32
            }

            /// The variant with this wire number; `None` for a number this
            /// build does not know.
            pub const fn from_u32(number: u32) -> ::std::option::Option<Self> {
                match number {
                    $($number => ::std::option::Option::Some($enum::$variant),)*
                    _ => ::std::option::Option::None,
                }
            }

            /// The stable name, as `Display` prints it.
            pub const fn name(self) -> &'static str {
                match self {
                    $($enum::$variant => $name,)*
                }
            }
        }

        impl ::std::fmt::Display for $enum {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}
