//! must-fire: an environment read in a deterministic crate.
pub fn islands() -> usize {
    std::env::var("CPM_ISLANDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}
