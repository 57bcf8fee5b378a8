// Thread-unsafe shared state: the type and macro entries.
use std::cell::RefCell;
use std::rc::Rc;

pub struct SharedCache {
    entries: Rc<RefCell<Vec<u64>>>,
}

pub fn counter() -> u64 {
    static mut COUNT: u64 = 0;
    0
}

pub struct Flags {
    dirty: std::cell::Cell<bool>,
    raw: std::cell::UnsafeCell<u64>,
}

thread_local! {
    static SCRATCH: Vec<u64> = const { Vec::new() };
}
