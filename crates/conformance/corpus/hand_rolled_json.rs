//! conformance-fixture: path=crates/server/src/fake_render.rs
// Seeded violations for `json-through-writer`: documents built from string
// literals instead of `engine::json::Writer`.

fn counted(count: u64) -> String {
    format!("{{\"count\": {count}}}") //~ json-through-writer
}

fn keyed(name: &str) -> String {
    format!("{{\"{name}\" : 1}}") //~ json-through-writer
}

// A quoted name that is not followed by a colon is not a key.
fn message() -> &'static str {
    "requests need a \"config_hash\" string: see /solve"
}

#[cfg(test)]
mod tests {
    // Test code may spell a golden document out.
    const GOLDEN: &str = "{\"count\": 1}";
}
