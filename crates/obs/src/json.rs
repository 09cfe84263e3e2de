//! `JsonWriter`: the workspace's one JSON encoder.
//!
//! An incremental pretty-printer in `serde_json`'s `to_string_pretty`
//! layout: two-space indent, `"key": value`, and `{}` / `[]` for empty
//! containers. [`crate::ObsSnapshot::to_json`], the lint report and the
//! bench artifacts all write through it, so every JSON file the
//! workspace emits shares one layout and one escaping rule. Keys are
//! escaped exactly like string values, so no input can produce invalid
//! JSON.

/// Incremental pretty-printer. Calls chain; [`JsonWriter::finish`]
/// returns the newline-terminated document.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: whether it already has an item.
    open: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }

    /// Separator, newline and indent before the next item of the
    /// innermost open container (nothing at top level).
    fn before_item(&mut self) {
        if let Some(has_items) = self.open.last_mut() {
            if *has_items {
                self.out.push(',');
            }
            *has_items = true;
            self.newline_indent();
        }
    }

    fn key(&mut self, key: &str) {
        self.before_item();
        push_escaped(&mut self.out, key);
        self.out.push_str(": ");
    }

    fn push_container(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.open.push(false);
        self
    }

    /// Closes the innermost container; an empty one stays on its
    /// opening line (`{}` / `[]`).
    fn pop_container(&mut self, bracket: char) -> &mut Self {
        if self.open.pop() == Some(true) {
            self.newline_indent();
        }
        self.out.push(bracket);
        self
    }

    /// Opens the top-level object, or an object inside an array.
    pub fn begin_object(&mut self) -> &mut Self {
        self.before_item();
        self.push_container('{')
    }

    /// Opens a named nested object.
    pub fn begin_named_object(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.push_container('{')
    }

    /// Closes the current object.
    pub fn end_object(&mut self) -> &mut Self {
        self.pop_container('}')
    }

    /// Opens a named array.
    pub fn begin_named_array(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.push_container('[')
    }

    /// Closes the current array.
    pub fn end_array(&mut self) -> &mut Self {
        self.pop_container(']')
    }

    /// Writes a `"key": <unsigned>` field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    /// Writes a `"key": <signed>` field.
    pub fn field_i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    /// Writes a `"key": <float>` field.
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    /// Writes a `"key": "value"` field with escaping.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        push_escaped(&mut self.out, value);
        self
    }

    /// Writes a `"key": true|false` field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Writes a `"key": null` field.
    pub fn field_null(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.out.push_str("null");
        self
    }

    /// Finishes and returns the document with a trailing newline.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

/// Appends `s` as a quoted JSON string: `"` and `\` are escaped, as is
/// every control character below U+0020.
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        push_escaped(&mut out, s);
        out
    }

    #[test]
    fn writer_matches_pretty_layout() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("clips", 3).field_i64("delta", -7).field_null("top");
        w.begin_named_object("empty").end_object();
        w.begin_named_array("none").end_array();
        w.begin_named_object("outer").field_str("name", "a").field_bool("ok", true);
        w.begin_named_array("rows");
        w.begin_object().field_f64("x", 0.5).end_object();
        w.end_array();
        w.end_object();
        w.end_object();
        let want = "{\n  \"clips\": 3,\n  \"delta\": -7,\n  \"top\": null,\n  \"empty\": {},\n  \
                    \"none\": [],\n  \"outer\": {\n    \"name\": \"a\",\n    \"ok\": true,\n    \
                    \"rows\": [\n      {\n        \"x\": 0.5\n      }\n    ]\n  }\n}\n";
        assert_eq!(w.finish(), want);
    }

    #[test]
    fn keys_are_escaped_like_values() {
        let awkward = "q\"b\\c\u{1}";
        let mut w = JsonWriter::new();
        w.begin_object().field_str(awkward, awkward).end_object();
        let e = escaped(awkward);
        assert_eq!(e, "\"q\\\"b\\\\c\\u0001\"");
        assert_eq!(w.finish(), format!("{{\n  {e}: {e}\n}}\n"));
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(escaped("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
    }
}
