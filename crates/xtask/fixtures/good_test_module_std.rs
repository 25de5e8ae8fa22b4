// Fixture: a `#[cfg(test)]` module may use `Ordering::Relaxed` freely —
// unit tests are exempt from the rule. Must lint clean under any path.
// Not compiled by cargo.

pub fn production_code() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn counts() {
        let c = AtomicU32::new(0);
        c.fetch_add(super::production_code(), Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 7);
    }
}
