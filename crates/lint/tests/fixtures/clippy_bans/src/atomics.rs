//! The stable `std::sync::atomic::Atomic*` types: counters a pool
//! closure could race its sibling cells on.

pub struct Counters {
    pub flag: std::sync::atomic::AtomicBool, // ban: std::sync::atomic::AtomicBool
    pub i8: std::sync::atomic::AtomicI8, // ban: std::sync::atomic::AtomicI8
    pub i16: std::sync::atomic::AtomicI16, // ban: std::sync::atomic::AtomicI16
    pub i32: std::sync::atomic::AtomicI32, // ban: std::sync::atomic::AtomicI32
    pub i64: std::sync::atomic::AtomicI64, // ban: std::sync::atomic::AtomicI64
    pub isize: std::sync::atomic::AtomicIsize, // ban: std::sync::atomic::AtomicIsize
    pub ptr: std::sync::atomic::AtomicPtr<u8>, // ban: std::sync::atomic::AtomicPtr
    pub u8: std::sync::atomic::AtomicU8, // ban: std::sync::atomic::AtomicU8
    pub u16: std::sync::atomic::AtomicU16, // ban: std::sync::atomic::AtomicU16
    pub u32: std::sync::atomic::AtomicU32, // ban: std::sync::atomic::AtomicU32
    pub u64: std::sync::atomic::AtomicU64, // ban: std::sync::atomic::AtomicU64
    pub usize: std::sync::atomic::AtomicUsize, // ban: std::sync::atomic::AtomicUsize
}
