//! Offline stand-in for `serde`, for the hermetic `oe-e2e` benchmark
//! build. The workspace only *derives* `Serialize` (and hand-writes it
//! once, in `oe-telemetry`); `oe-e2e` itself never serializes through
//! serde — it has its own JSON writer — so the derive here emits a
//! unit. Nothing built against this stand-in may be trusted to produce
//! serde output.

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

pub mod ser {
    pub trait Serialize {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
    }

    pub trait Serializer: Sized {
        type Ok;
        type Error;
        type SerializeStruct: SerializeStruct<Ok = Self::Ok, Error = Self::Error>;

        fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
        fn serialize_struct(
            self,
            name: &'static str,
            len: usize,
        ) -> Result<Self::SerializeStruct, Self::Error>;
    }

    pub trait SerializeStruct {
        type Ok;
        type Error;

        fn serialize_field<T: ?Sized + Serialize>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    macro_rules! unit_impl {
        ($($t:ty),*) => {$(
            impl Serialize for $t {
                fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                    s.serialize_unit()
                }
            }
        )*};
    }
    unit_impl!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, str, String);

    impl<T: ?Sized + Serialize> Serialize for &T {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            (**self).serialize(s)
        }
    }

    impl<T: Serialize> Serialize for Option<T> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_unit()
        }
    }

    impl<T: Serialize> Serialize for [T] {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_unit()
        }
    }

    impl<T: Serialize> Serialize for Vec<T> {
        fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_unit()
        }
    }
}

pub use ser::{Serialize, Serializer};
