// Fixture: hazards outside every function body. A `static` initializer
// and a `macro_rules!` body are item-level code, and the crate-scoped
// rules reach them; the `use` line that names `SystemTime` is no site.
use std::sync::LazyLock;
use std::time::{Instant, SystemTime};

static TABLE: LazyLock<u64> = LazyLock::new(|| "7".parse().unwrap());

macro_rules! stamp {
    () => {
        Instant::now()
    };
}
