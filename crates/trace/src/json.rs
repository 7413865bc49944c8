//! A tiny hand-rolled JSON object writer.
//!
//! The workspace builds offline, without a serialisation library (the
//! vendored serde is a stand-in that derives nothing), so the trace layer
//! renders its own JSON. Only the shapes the trace dump needs are
//! supported: flat objects with string / number / hex-string / bool /
//! null fields.

/// Builds one `{...}` object field by field.
pub struct JsonWriter {
    buf: String,
    first: bool,
}

impl JsonWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(name);
        self.buf.push_str("\":");
    }

    /// Writes a string field, escaping quotes, backslashes, and controls.
    pub fn str_field(&mut self, name: &str, value: &str) {
        self.key(name);
        self.buf.push('"');
        for c in value.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\t' => self.buf.push_str("\\t"),
                '\r' => self.buf.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// Writes an unsigned-number field.
    pub fn num_field(&mut self, name: &str, value: u64) {
        self.key(name);
        self.buf.push_str(&value.to_string());
    }

    /// Addresses read better in hex; JSON numbers can't carry them, so
    /// they are emitted as `"0x..."` strings.
    pub fn hex_field(&mut self, name: &str, value: u64) {
        self.key(name);
        self.buf.push_str(&format!("\"{value:#x}\""));
    }

    /// Writes a `true`/`false` field.
    pub fn bool_field(&mut self, name: &str, value: bool) {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Writes an explicit `null` field.
    pub fn null_field(&mut self, name: &str) {
        self.key(name);
        self.buf.push_str("null");
    }

    /// Appends a pre-rendered JSON value under `name` (for nesting).
    pub fn raw_field(&mut self, name: &str, json: &str) {
        self.key(name);
        self.buf.push_str(json);
    }

    /// Closes the object and returns the rendered text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders a JSON array from pre-rendered element strings.
pub fn array(elements: impl IntoIterator<Item = String>) -> String {
    let mut buf = String::from("[");
    for (i, e) in elements.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&e);
    }
    buf.push(']');
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_shapes() {
        let mut w = JsonWriter::new();
        w.str_field("a", "x\"y");
        w.num_field("b", 7);
        w.hex_field("c", 0xff);
        w.bool_field("d", false);
        w.null_field("e");
        assert_eq!(
            w.finish(),
            r#"{"a":"x\"y","b":7,"c":"0xff","d":false,"e":null}"#
        );
    }

    #[test]
    fn arrays() {
        assert_eq!(array(["1".to_string(), "2".to_string()]), "[1,2]");
        assert_eq!(array([]), "[]");
    }
}
