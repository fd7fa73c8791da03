//! In-tree shim of `serde_json`: `to_string` / `from_str` over the serde
//! shim's traits. Serialization streams straight into a `String`;
//! deserialization parses to a [`Value`] tree and decodes from borrowed
//! nodes (zero clones of the tree during decoding).
//!
//! Format notes (self-consistent; mirrors real serde_json where it matters):
//! - structs/maps → objects; maps emit **sorted** keys (determinism);
//! - enums are externally tagged: `"Variant"`, `{"Variant": payload}`;
//! - integers print without a fraction, floats use Rust's shortest
//!   round-trip formatting; non-finite floats serialize as `null`.

mod parse;
mod ser;
mod value;

pub use parse::{from_str, MAX_DEPTH};
pub use ser::to_string;
pub use value::Value;

/// Error type shared by serialization and deserialization.
#[derive(Debug, Clone)]
pub struct Error(pub(crate) String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}
impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}
impl serde::de::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}
