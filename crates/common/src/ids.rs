//! Typed identifiers used across crates.
//!
//! Newtypes prevent the classic bug of passing a site id where a document id
//! is expected; they cost nothing at runtime.

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
        pub struct $name(pub u32);

        impl $name {
            /// The underlying integer.
            #[inline]
            pub fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// A web site (one host) in the simulated web.
    SiteId
);
id_type!(
    /// A document in the search index.
    DocId
);
id_type!(
    /// A record in a site's backing table.
    RecordId
);
id_type!(
    /// A query in a generated workload.
    QueryId
);
id_type!(
    /// An interned index term (see [`crate::intern::TermDict`]).
    TermId
);
id_type!(
    /// An interned facet key (annotation name) in the search index's facet
    /// vocabulary — the key side of annotation-aware scoring (paper §5.1).
    FacetKeyId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(SiteId(1) < SiteId(2));
        assert_eq!(DocId(7).to_string(), "DocId(7)");
        assert_eq!(QueryId::from(3u32).as_usize(), 3);
    }

    #[test]
    fn ids_usable_as_map_keys() {
        use crate::fxhash::FxHashMap;
        let mut m: FxHashMap<RecordId, &str> = FxHashMap::default();
        m.insert(RecordId(9), "x");
        assert_eq!(m[&RecordId(9)], "x");
    }
}
